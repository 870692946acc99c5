"""2-D pixel lattice: row-major indexing and the 4-connected neighborhood.

Pixels of an ``height x width`` grid are numbered ``0 .. P-1`` in row-major
order (``p = row * width + col``). Neighbors are the 4-connected ones (north,
south, west, east, clipped at the borders).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def color_sites(self) -> tuple[np.ndarray, np.ndarray]:
        """Two index sets covering the grid such that no pixel has a
        4-connected neighbor of its own set: (even, odd) sorted index
        arrays, colored by (row + col) parity. Computed once per lattice and
        shared, hence read-only."""
        rows, cols = np.divmod(np.arange(self.n_pixels), self.width)
        even = (rows + cols) % 2 == 0
        idx = np.arange(self.n_pixels)
        sites = idx[even], idx[~even]
        for s in sites:
            s.flags.writeable = False
        return sites


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
