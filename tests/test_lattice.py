"""Lattice indexing, neighborhoods and checkerboard coloring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbum.errors import ValidationError
from hbum.lattice import Lattice, neighbor_value_counts
import oracles
from oracles import color_masks, coords, index, neighbors

lattice_dims = st.tuples(st.integers(1, 12), st.integers(1, 12))


class TestNeighbors:
    """The scalar neighbor reference in ``oracles`` that the vectorised
    counts are checked against."""

    def test_interior_pixel_has_four_neighbors(self):
        lat = Lattice(3, 3)
        center = index(lat, 1, 1)
        expected = {index(lat, 0, 1), index(lat, 2, 1), index(lat, 1, 0), index(lat, 1, 2)}
        assert set(neighbors(lat, center)) == expected

    def test_corner_pixel_clipped_to_two(self):
        lat = Lattice(3, 3)
        assert set(neighbors(lat, index(lat, 0, 0))) == {index(lat, 0, 1), index(lat, 1, 0)}

    def test_single_pixel_lattice_has_no_neighbors(self):
        assert neighbors(Lattice(1, 1), 0) == []

    def test_out_of_range_index_rejected(self):
        lat = Lattice(2, 2)
        with pytest.raises(ValidationError):
            neighbors(lat, 4)
        with pytest.raises(ValidationError):
            neighbors(lat, -1)

    @settings(max_examples=40, deadline=None)
    @given(lattice_dims)
    def test_symmetry_and_degree(self, dims):
        height, width = dims
        lat = Lattice(height, width)
        neighbor_sets = [set(neighbors(lat, p)) for p in range(lat.n_pixels)]
        for p, nbrs in enumerate(neighbor_sets):
            assert p not in nbrs
            for q in nbrs:
                assert p in neighbor_sets[q]
            row, col = coords(lat, p)
            on_edge = int(row in (0, height - 1)) + int(col in (0, width - 1))
            expected = 4 - sum(
                [row == 0, row == height - 1, col == 0, col == width - 1]
            )
            assert len(nbrs) == expected, (p, on_edge)


class TestIndexing:
    @settings(max_examples=30, deadline=None)
    @given(lattice_dims)
    def test_index_coords_roundtrip(self, dims):
        lat = Lattice(*dims)
        for p in range(lat.n_pixels):
            assert index(lat, *coords(lat, p)) == p

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(ValidationError):
            Lattice(0, 5)
        with pytest.raises(ValidationError):
            Lattice(5, -1)


class TestCheckerboard:
    def test_two_by_two(self):
        lat = Lattice(2, 2)
        even, odd = lat.color_sites
        assert set(even) == {index(lat, 0, 0), index(lat, 1, 1)}
        assert set(odd) == {index(lat, 0, 1), index(lat, 1, 0)}

    def test_one_by_three(self):
        even, odd = Lattice(1, 3).color_sites
        assert set(even) == {0, 2}
        assert set(odd) == {1}

    @settings(max_examples=40, deadline=None)
    @given(lattice_dims)
    def test_partition_covers_and_separates(self, dims):
        lat = Lattice(*dims)
        even, odd = lat.color_sites
        assert len(even) + len(odd) == lat.n_pixels
        assert set(even).isdisjoint(odd)
        even_set = set(even)
        for p in even:
            assert not even_set.intersection(neighbors(lat, p))
        odd_set = set(odd)
        for p in odd:
            assert not odd_set.intersection(neighbors(lat, p))

    @settings(max_examples=20, deadline=None)
    @given(lattice_dims)
    def test_sites_are_sorted_masks_and_read_only(self, dims):
        # Label sweeps index with these sites in place of boolean masks, so
        # they must list each mask's pixels in row-major order.
        lat = Lattice(*dims)
        for sites, mask in zip(lat.color_sites, color_masks(lat)):
            assert np.array_equal(sites, np.flatnonzero(mask.ravel()))
            assert not sites.flags.writeable
        assert lat.color_sites is lat.color_sites


class TestNeighborValueCounts:
    def test_matches_scalar_counting(self):
        rng = np.random.default_rng(7)
        lat = Lattice(5, 6)
        labels = rng.integers(0, 3, size=lat.n_pixels).astype(np.int32)
        counts = neighbor_value_counts(labels.reshape(5, 6), 3)
        for p in range(lat.n_pixels):
            row, col = coords(lat, p)
            for v in range(3):
                expected = sum(labels[q] == v for q in neighbors(lat, p))
                assert counts[v, row, col] == expected

    def test_counts_sum_to_degree(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=(7, 5)).astype(np.int32)
        counts = neighbor_value_counts(labels, 4)
        total = counts.sum(axis=0)
        assert total[1:-1, 1:-1].min() == 4
        assert total[0, 0] == 2

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 6), (6, 5), (40, 40)])
    @pytest.mark.parametrize("n_values", [1, 2, 3, 12])
    def test_matches_shift_add_reference(self, shape, n_values):
        # Each colour's counts, and the whole grid's, against the shifted
        # one-hot adds; the centre of a uniform 3x3 block counts 4, which an
        # add of two bool arrays (a logical or) would count as 1.
        lat = Lattice(*shape)
        labels = np.random.default_rng(n_values).integers(n_values, size=shape).astype(np.int32)
        if min(shape) >= 3:
            labels[:3, :3] = n_values - 1
        ref = oracles.neighbor_value_counts(labels, n_values)
        if min(shape) >= 3:
            assert ref[n_values - 1, 1, 1] == 4
        full = neighbor_value_counts(labels, n_values)
        assert full.dtype == ref.dtype and np.array_equal(full, ref)
        for color, sites in enumerate(lat.color_sites):
            counts = neighbor_value_counts(labels, n_values, color)
            assert counts.dtype == np.int32
            assert np.array_equal(counts, ref.reshape(n_values, -1)[:, sites])
