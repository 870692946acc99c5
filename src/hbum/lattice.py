"""2-D pixel lattice: row-major indexing and the 4-connected neighborhood.

Pixels of an ``height x width`` grid are numbered ``0 .. P-1`` in row-major
order (``p = row * width + col``). The neighborhood system is fixed to
4-connectivity (north, south, west, east, clipped at the borders); it is the
single constant below so an 8-connected variant could be added later without
touching callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

#: Fixed neighborhood system: (drow, dcol) offsets of the 4-connected stencil.
NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = ((-1, 0), (1, 0), (0, -1), (0, 1))


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

    def index(self, row: int, col: int) -> int:
        """Row-major pixel index of grid position (row, col)."""
        if not (0 <= row < self.height and 0 <= col < self.width):
            raise ValidationError(f"position ({row}, {col}) outside {self.height}x{self.width} grid")
        return row * self.width + col

    def coords(self, p: int) -> tuple[int, int]:
        """Grid position (row, col) of pixel index ``p``."""
        self._check_index(p)
        return divmod(p, self.width)

    def neighbors(self, p: int) -> list[int]:
        """Indices of the 4-connected neighbors of ``p``, clipped at borders.

        The relation is symmetric and never contains ``p`` itself: interior
        pixels have 4 neighbors, edge pixels 3, corners 2 (a 1x1 grid has
        none).
        """
        self._check_index(p)
        row, col = divmod(p, self.width)
        out = []
        for drow, dcol in NEIGHBOR_OFFSETS:
            r, c = row + drow, col + dcol
            if 0 <= r < self.height and 0 <= c < self.width:
                out.append(r * self.width + c)
        return out

    def checkerboard_partition(self) -> tuple[np.ndarray, np.ndarray]:
        """Two index sets covering the grid such that no pixel has a
        4-connected neighbor of its own set.

        Returns (even, odd) sorted index arrays, colored by (row + col) parity.
        """
        rows, cols = np.divmod(np.arange(self.n_pixels), self.width)
        even = (rows + cols) % 2 == 0
        idx = np.arange(self.n_pixels)
        return idx[even], idx[~even]

    @cached_property
    def color_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """The two index sets of :meth:`checkerboard_partition`, computed
        once per lattice and shared, hence read-only."""
        even, odd = self.checkerboard_partition()
        even.flags.writeable = False
        odd.flags.writeable = False
        return even, odd

    def color_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Boolean (height, width) masks of the two checkerboard colors."""
        rows, cols = np.indices((self.height, self.width))
        even = (rows + cols) % 2 == 0
        return even, ~even

    def _check_index(self, p: int) -> None:
        if not (0 <= p < self.n_pixels):
            raise ValidationError(f"pixel index {p} outside [0, {self.n_pixels})")


def neighbor_value_counts(labels_grid: np.ndarray, n_values: int) -> np.ndarray:
    """Count, for every pixel and every candidate value, how many 4-connected
    neighbors currently carry that value.

    Parameters
    ----------
    labels_grid : (height, width) integer array with values in [0, n_values).
    n_values : number of candidate values.

    Returns
    -------
    (n_values, height, width) int32 array; entry [v, r, c] is the number of
    neighbors of pixel (r, c) equal to ``v``.
    """
    onehot = (labels_grid[None, :, :] == np.arange(n_values)[:, None, None]).astype(np.int32)
    counts = np.zeros_like(onehot)
    counts[:, 1:, :] += onehot[:, :-1, :]
    counts[:, :-1, :] += onehot[:, 1:, :]
    counts[:, :, 1:] += onehot[:, :, :-1]
    counts[:, :, :-1] += onehot[:, :, 1:]
    return counts
