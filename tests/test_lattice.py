"""Dyadic block geometry and mixed differences on Z^d."""

from collections import Counter

import numpy as np
import pytest

from schurkit import Box, DyadicIndex, dyadic_block_points, fundamental_theorem_expand
from schurkit.lattice import _mixed_difference


class TestBox:
    def test_interval_points(self):
        b = Box.interval(-2, 3)
        assert b.npoints == 5
        assert list(b.points()) == [(-2,), (-1,), (0,), (1,), (2,)]

    def test_cube_counts(self):
        assert Box.cube(0, 3, 2).npoints == 9
        assert Box.cube(-1, 2, 3).npoints == 27

    def test_index_roundtrip(self):
        b = Box.from_pairs([(-2, 1), (0, 4)])
        pts = list(b.points())
        for i, pt in enumerate(pts):
            assert b.index(pt) == i
        idx, valid = b.index_array(np.array(pts))
        assert valid.all() and idx.tolist() == list(range(len(pts)))

    def test_index_outside_raises(self):
        b = Box.interval(0, 4)
        with pytest.raises(ValueError):
            b.index((4,))

    def test_index_array_flags_invalid(self):
        b = Box.cube(0, 3, 2)
        pts = np.array([[0, 0], [2, 2], [3, 0], [-1, 1]])
        idx, valid = b.index_array(pts)
        assert valid.tolist() == [True, True, False, False]
        assert idx[0] == 0 and idx[1] == b.index((2, 2))

    def test_points_array_matches_points(self):
        b = Box.from_pairs([(1, 3), (-1, 2)])
        assert [tuple(r) for r in b.points_array()] == list(b.points())

    def test_contains(self):
        b = Box.from_pairs([(0, 2), (5, 6)])
        assert (1, 5) in b
        assert (2, 5) not in b
        assert (0, 6) not in b

    def test_product(self):
        pr = Box.interval(0, 2).product(Box.interval(5, 7))
        assert pr.d == 2 and pr.npoints == 4
        assert list(pr.points()) == [(0, 5), (0, 6), (1, 5), (1, 6)]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            Box.interval(3, 2)


class TestDyadicBlocks:
    def test_block_zero_is_origin(self):
        assert dyadic_block_points(0, 2).tolist() == [[0, 0]]

    def test_half_open_boundaries_1d(self):
        # block j holds 2^(j-1) but not 2^j
        for j in (1, 2, 3, 4):
            block = dyadic_block_points(j, 1)[:, 0].tolist()
            assert 2 ** (j - 1) in block
            assert -(2 ** (j - 1)) in block
            assert 2**j - 1 in block
            assert 2**j not in block

    def test_blocks_partition_plane(self):
        span = Box.cube(-8, 9, 2)
        counted = sum(len(dyadic_block_points(j, 2)) for j in range(5))
        # levels 0..4 cover exactly |n|_inf <= 15, a 31 x 31 square
        assert counted == 31 * 31
        blocks = [{tuple(p) for p in dyadic_block_points(j, 2).tolist()} for j in range(6)]
        for pt in span.points():
            hits = [j for j in range(6) if pt in blocks[j]]
            assert len(hits) == 1

    def test_block_sizes_1d(self):
        for j in range(1, 7):
            assert len(dyadic_block_points(j, 1)) == 2**j

    def test_dyadic_index_validation(self):
        with pytest.raises(ValueError):
            DyadicIndex(-1, 1)
        with pytest.raises(ValueError):
            DyadicIndex(0, 0)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_split_block_2d_partitions(self, j):
        # E_j in Z^2 is four half-open rectangles: with I = [2^(j-1), 2^j)
        # and J = [-2^(j-1) + 1, 2^j), they are J x I, (-I) x J, I x (-J)
        # and (-J) x (-I)
        h, f = 2 ** (j - 1), 2**j
        I, J = (h, f), (-h + 1, f)
        neg_I, neg_J = (-f + 1, -h + 1), (-f + 1, h)
        pieces = [Box.from_pairs(sides)
                  for sides in ((J, I), (neg_I, J), (I, neg_J), (neg_J, neg_I))]
        block = {tuple(r) for r in dyadic_block_points(j, 2)}
        covered = []
        for box in pieces:
            covered.extend(box.points())
        assert len(covered) == len(set(covered))
        assert set(covered) == block


class TestDifferences:
    def test_forward_first_order(self):
        V = np.arange(-3, 6) ** 2
        assert _mixed_difference(V, (1,)).tolist() == [(n + 1) ** 2 - n**2 for n in range(-3, 5)]

    def test_mixed_difference_2d(self):
        # the (1,1) difference of the product is identically 1
        n1, n2 = np.meshgrid(np.arange(-2, 3), np.arange(-2, 4), indexing="ij")
        D = _mixed_difference(n1 * n2, (1, 1))
        assert D.shape == (4, 5) and (D == 1).all()

    def test_axes_outside_alpha_keep_their_length(self):
        # a batch of tables on a 4 x 5 x 6 box: alpha = (0, 1, 0) shrinks the
        # second lattice axis alone, so the differences anchored at every
        # value of the other coordinates stay in the result
        V = np.random.default_rng(3).standard_normal((2, 4, 5, 6))
        D = _mixed_difference(V, (0, 1, 0))
        assert D.shape == (2, 4, 4, 6)
        assert np.array_equal(D, V[:, :, 1:, :] - V[:, :, :-1, :])
        assert _mixed_difference(V, (0, 0, 0)).shape == V.shape


class TestFundamentalTheorem:
    def test_exact_reconstruction_randomized(self):
        # anchored difference expansion reproduces the point value exactly
        rng = np.random.default_rng(42)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            side = int(rng.integers(2, 6))
            lo = [int(x) for x in rng.integers(-3, 3, size=d)]
            box = Box.from_pairs([(l, l + side) for l in lo])
            values = {pt: complex(rng.standard_normal(), rng.standard_normal())
                      for pt in box.points()}
            phi = values.__getitem__
            n = tuple(int(rng.integers(l, l + side)) for l in lo)
            s = tuple(box.los)
            t = tuple(box.his)
            got = fundamental_theorem_expand(phi, s, t, n)
            assert abs(got - phi(n)) <= 1e-12 * max(1.0, abs(phi(n)))

    def test_calls_M_once_per_point_of_the_box(self):
        # M is read on [s, n] alone: each point once, nothing past n
        calls = Counter()

        def phi(pt):
            calls[pt] += 1
            return complex(sum(pt), pt[0] * pt[-1])

        s, t, n = (-1, 0, 2), (4, 4, 5), (1, 2, 2)
        assert fundamental_theorem_expand(phi, s, t, n) == phi(n)
        calls[n] -= 1
        assert calls == Counter(Box(s, tuple(x + 1 for x in n)).points())

    def test_rejects_point_outside(self):
        phi = lambda n: 0
        with pytest.raises(ValueError):
            fundamental_theorem_expand(phi, (0,), (3,), (3,))
