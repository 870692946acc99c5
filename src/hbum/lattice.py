"""2-D pixel lattice: row-major indexing and the 4-connected neighborhood.

Pixels of an ``height x width`` grid are numbered ``0 .. P-1`` in row-major
order (``p = row * width + col``). Neighbors are the 4-connected ones (north,
south, west, east, clipped at the borders).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Lattice:
    """Rectangular pixel grid with row-major pixel indices."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height < 1 or self.width < 1:
            raise ValidationError(
                f"lattice dimensions must be positive, got {self.height}x{self.width}"
            )

    @property
    def n_pixels(self) -> int:
        return self.height * self.width

    @property
    def color_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """Two index sets covering the grid such that no pixel has a
        4-connected neighbor of its own set: (even, odd) sorted index
        arrays, colored by (row + col) parity. Computed once per lattice
        shape and shared, hence read-only."""
        return _checkerboard(self.height, self.width)[0]


@lru_cache(maxsize=8)
def _checkerboard(height: int, width: int) -> tuple[tuple, tuple]:
    """``color_sites`` and, per colour, the (4, n_sites) int32 (while they
    fit) flat indices of each site's north, south, west and east neighbors
    in the grid framed by one off-grid pixel; shared, hence read-only."""
    idx = np.arange(height * width)
    rows, cols = np.divmod(idx, width)
    sites = idx[(rows + cols) % 2 == 0], idx[(rows + cols) % 2 == 1]
    dtype = np.int32 if (height + 2) * (width + 2) < 2**31 else np.intp
    framed = ((rows + 1) * (width + 2) + cols + 1).astype(dtype)
    step = np.array([-width - 2, width + 2, -1, 1], dtype=dtype)[:, None]
    neighbors = tuple(framed[s] + step for s in sites)
    for a in sites + neighbors:
        a.flags.writeable = False
    return sites, neighbors


def neighbor_value_counts(
    labels_grid: np.ndarray, n_values: int, color: int | None = None
) -> np.ndarray:
    """int32 counts of the 4-connected neighbors carrying each value in
    ``range(n_values)``: (n_values, n_sites) at the sites of
    ``Lattice(height, width).color_sites[color]``, in that order, or
    (n_values, height, width) over the whole grid when ``color`` is None.

    The labels are framed by -1, never a value. A colour's neighbor labels
    are gathered through the indices ``_checkerboard`` caches, the whole
    grid's are stacked from four shifted views; each value is counted by
    comparing and adding.
    """
    height, width = labels_grid.shape
    framed = np.full((height + 2, width + 2), -1, dtype=np.result_type(labels_grid, np.int8))
    framed[1:-1, 1:-1] = labels_grid
    if color is None:
        mid = framed[1:-1]
        around = np.stack([framed[:-2, 1:-1], framed[2:, 1:-1], mid[:, :-2], mid[:, 2:]])
    else:
        around = np.take(framed, _checkerboard(height, width)[1][color])
    counts = np.empty((n_values, *around.shape[1:]), dtype=np.int32)
    for v, out in enumerate(counts):
        same = np.equal(around, v).view(np.int8)  # int8, as bool + bool is a logical or
        out[...] = same[0] + same[1] + same[2] + same[3]
    return counts
