"""Unit tests for strong-composition segmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import composition as comp
from preflab.errors import ValidationError


class TestStatic:
    def test_window_four_over_ten(self):
        c_w, c_l = comp.xi_static(10, 10, 4)
        assert c_w.parts == (4, 4, 2)
        assert c_l.parts == c_w.parts

    def test_window_one_is_token_level(self):
        c_w, _ = comp.xi_static(10, 10, 1)
        assert c_w.parts == (1,) * 10

    def test_giant_window_collapses_to_one_segment(self):
        c_w, c_l = comp.xi_static(7, 5, 100)
        assert c_w.parts == (7,)
        assert c_l.parts == (5,)

    def test_short_side_windows_clip_to_its_length(self):
        c_w, c_l = comp.xi_static(3, 5, 2)
        # windows [0,2), [2,4), [4,6) clipped to each side
        assert c_w.parts == (2, 1, 0)
        assert c_l.parts == (2, 2, 1)

    def test_bad_window_rejected(self):
        with pytest.raises(ValidationError):
            comp.xi_static(3, 5, 0)
        with pytest.raises(ValidationError):
            comp.xi_static(0, 5, 2)


class TestAdaptive:
    def test_ten_into_three(self):
        assert comp.xi_adaptive(10, 3).parts == (3, 3, 4)

    def test_single_segment_is_whole_response(self):
        assert comp.xi_adaptive(5, 1).parts == (5,)

    def test_short_response_gets_empty_segments(self):
        assert comp.xi_adaptive(2, 3).parts == (0, 1, 1)

    def test_bad_count_rejected(self):
        with pytest.raises(ValidationError):
            comp.xi_adaptive(5, 0)
        with pytest.raises(ValidationError):
            comp.xi_adaptive(-1, 2)


class TestSegmentPair:
    def test_adaptive_one_segment_spans_everything(self):
        seg = comp.segment_pair((5, 7), "adaptive", 1)
        assert seg.n_segments == 1
        assert seg.w_bounds == ((0, 5),)
        assert seg.l_bounds == ((0, 7),)
        assert seg.kept_segments == (0,)

    def test_static_token_level_short_side_gets_empty_segments(self):
        seg = comp.segment_pair((3, 5), "static", 1)
        assert seg.n_segments == 5
        assert seg.w_bounds == ((0, 1), (1, 2), (2, 3), (3, 3), (3, 3))
        assert seg.l_bounds == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
        # segments 4-5 are empty on the chosen side but kept: the rejected
        # side still has content there
        assert seg.kept_segments == (0, 1, 2, 3, 4)

    def test_adaptive_two_segments_both_sides(self):
        seg = comp.segment_pair((4, 6), "adaptive", 2)
        assert seg.w_bounds == ((0, 2), (2, 4))
        assert seg.l_bounds == ((0, 3), (3, 6))

    def test_both_empty_segment_skipped(self):
        seg = comp.segment_pair((2, 2), "adaptive", 3)
        # parts (0,1,1) on both sides: first segment empty on both
        assert seg.kept_segments == (1, 2)

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            comp.segment_pair((3, 3), "semantic", 2)

    def test_pad_tokens(self):
        assert comp.pad_tokens((3, 4), 4, pad_id=2) == (3, 4, 2, 2)
        with pytest.raises(ValidationError):
            comp.pad_tokens((3, 4, 5), 2, pad_id=2)


class TestKeptRanks:
    @pytest.mark.parametrize(
        "family,param", [("static", 1), ("static", 3), ("adaptive", 1), ("adaptive", 4), ("adaptive", 9)]
    )
    def test_match_direct_computation(self, family, param):
        # m=9 exceeds every length here: segments empty on both sides are dropped
        for len_w in range(1, 8):
            for len_l in range(1, 8):
                seg = comp.segment_pair((len_w, len_l), family, param)
                kept = seg.kept_segments
                for bounds, ranks in zip((seg.w_bounds, seg.l_bounds), seg.kept_ranks):
                    direct = [kept.index(i) for i, (a, b) in enumerate(bounds) for _ in range(a, b)]
                    assert ranks.dtype == np.intp and ranks.tolist() == direct
                assert seg.kept_ranks is seg.kept_ranks


def assert_partition(parts, length):
    bounds = comp.StrongComposition(tuple(parts)).bounds()
    covered = []
    for start, stop in bounds:
        assert 0 <= start <= stop <= length
        covered.extend(range(start, stop))
    assert covered == list(range(length))


class TestProperties:
    @given(
        len_w=st.integers(1, 512),
        len_l=st.integers(1, 512),
        k=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_static_partitions_padded_grid(self, len_w, len_l, k):
        # the windows of the shared grid 0..max(len_w, len_l), each side
        # clipped to its own length
        c_w, c_l = comp.xi_static(len_w, len_l, k)
        grid = max(len_w, len_l)
        n = -(-grid // k)
        for c, length in ((c_w, len_w), (c_l, len_l)):
            assert len(c.parts) == n
            assert_partition(c.parts, length)
            for i, (start, stop) in enumerate(c.bounds()):
                assert (start, stop) == (min(i * k, length), min((i + 1) * k, length))
        assert all(max(a, b) >= 1 for a, b in zip(c_w.parts, c_l.parts))
        if k >= grid:
            assert n == 1

    @given(length=st.integers(0, 512), m=st.integers(1, 512))
    @settings(max_examples=200, deadline=None)
    def test_adaptive_partitions_uniformly(self, length, m):
        c = comp.xi_adaptive(length, m)
        assert len(c.parts) == m
        assert c.total == length
        assert_partition(c.parts, length)
        lo, hi = length // m, -(-length // m)
        assert all(p in (lo, hi) for p in c.parts)
        if m == 1:
            assert c.parts == (length,)

    @given(
        len_w=st.integers(1, 64),
        len_l=st.integers(1, 64),
        m=st.integers(1, 96),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_pair_alignment(self, len_w, len_l, m):
        for family in ("adaptive", "static"):
            seg = comp.segment_pair((len_w, len_l), family, m)
            assert len(seg.w_bounds) == len(seg.l_bounds) == seg.n_segments
            if family == "adaptive":
                assert seg.n_segments == m
            assert seg.w_bounds[-1][1] == len_w and seg.l_bounds[-1][1] == len_l
            w_sizes = [b - a for a, b in seg.w_bounds]
            l_sizes = [b - a for a, b in seg.l_bounds]
            live = [i for i in range(seg.n_segments) if w_sizes[i] or l_sizes[i]]
            assert seg.kept_segments == tuple(live)
