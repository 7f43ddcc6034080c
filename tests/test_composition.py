"""Unit tests for strong-composition segmentation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preflab import losses
from preflab.errors import ValidationError

from helpers import bounds_kept_ranks, python_kept_ranks, segment_bounds


def kept_ranks(seg):
    """Per side, the closed-form kept ranks of one pair."""
    ranks, _ = losses.stacked_ranks([seg])
    return ranks[: seg.len_w], ranks[seg.len_w :]


def assert_ranks_match_bounds(seg):
    assert [r.tolist() for r in kept_ranks(seg)] == [r.tolist() for r in bounds_kept_ranks(seg)]


def kept_sizes(seg):
    """Per side, the token count of each kept segment, from the closed form."""
    w, l = kept_ranks(seg)
    kept = int(max(w.max(), l.max())) + 1
    return tuple(np.bincount(r, minlength=kept).tolist() for r in (w, l))


class TestStatic:
    def test_window_four_over_ten(self):
        seg = losses.segment_pair((10, 10), "static", 4)
        assert kept_sizes(seg) == ([4, 4, 2], [4, 4, 2])
        assert segment_bounds(seg)[0] == [(0, 4), (4, 8), (8, 10)]

    def test_window_one_is_token_level(self):
        assert kept_sizes(losses.segment_pair((10, 10), "static", 1))[0] == [1] * 10

    def test_giant_window_collapses_to_one_segment(self):
        seg = losses.segment_pair((7, 5), "static", 100)
        assert kept_sizes(seg) == ([7], [5])
        assert segment_bounds(seg) == ([(0, 7)], [(0, 5)])

    def test_short_side_windows_clip_to_its_length(self):
        seg = losses.segment_pair((3, 5), "static", 2)
        # windows [0,2), [2,4), [4,6) clipped to each side
        assert kept_sizes(seg) == ([2, 1, 0], [2, 2, 1])
        assert segment_bounds(seg) == ([(0, 2), (2, 3), (3, 3)], [(0, 2), (2, 4), (4, 5)])


class TestAdaptive:
    def test_ten_into_three(self):
        seg = losses.segment_pair((10, 10), "adaptive", 3)
        assert kept_sizes(seg)[0] == [3, 3, 4]
        assert segment_bounds(seg)[0] == [(0, 3), (3, 6), (6, 10)]

    def test_single_segment_is_whole_response(self):
        assert kept_sizes(losses.segment_pair((5, 5), "adaptive", 1))[0] == [5]

    def test_short_response_gets_empty_segments(self):
        # the rejected side has content in all three segments, so all are kept
        seg = losses.segment_pair((2, 3), "adaptive", 3)
        assert kept_sizes(seg) == ([0, 1, 1], [1, 1, 1])
        assert segment_bounds(seg)[0] == [(0, 0), (0, 1), (1, 2)]


class TestSegmentPair:
    def test_adaptive_one_segment_spans_everything(self):
        seg = losses.segment_pair((5, 7), "adaptive", 1)
        assert segment_bounds(seg) == ([(0, 5)], [(0, 7)])
        assert [r.tolist() for r in kept_ranks(seg)] == [[0] * 5, [0] * 7]

    def test_static_token_level_short_side_gets_empty_segments(self):
        seg = losses.segment_pair((3, 5), "static", 1)
        assert segment_bounds(seg) == (
            [(0, 1), (1, 2), (2, 3), (3, 3), (3, 3)],
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )
        # segments 4-5 are empty on the chosen side but kept: the rejected
        # side still has content there
        assert [r.tolist() for r in kept_ranks(seg)] == [[0, 1, 2], [0, 1, 2, 3, 4]]

    def test_adaptive_two_segments_both_sides(self):
        seg = losses.segment_pair((4, 6), "adaptive", 2)
        assert segment_bounds(seg) == ([(0, 2), (2, 4)], [(0, 3), (3, 6)])
        assert [r.tolist() for r in kept_ranks(seg)] == [[0, 0, 1, 1], [0, 0, 0, 1, 1, 1]]

    def test_both_empty_segment_skipped(self):
        seg = losses.segment_pair((2, 2), "adaptive", 3)
        # parts (0,1,1) on both sides: first segment empty on both, so
        # segments 1 and 2 take ranks 0 and 1
        assert [r.tolist() for r in kept_ranks(seg)] == [[0, 1], [0, 1]]

    def test_unknown_family(self):
        with pytest.raises(ValidationError):
            losses.segment_pair((3, 3), "semantic", 2)

    def test_pad_tokens(self):
        assert losses.pad_tokens((3, 4), 4, pad_id=2) == (3, 4, 2, 2)
        with pytest.raises(ValidationError):
            losses.pad_tokens((3, 4, 5), 2, pad_id=2)


class TestKeptRanks:
    @pytest.mark.parametrize(
        "family,param", [("static", 1), ("static", 3), ("adaptive", 1), ("adaptive", 4), ("adaptive", 9)]
    )
    def test_match_direct_computation(self, family, param):
        # m=9 exceeds every length here: segments empty on both sides are dropped
        for len_w in range(1, 8):
            for len_l in range(1, 8):
                seg = losses.segment_pair((len_w, len_l), family, param)
                bounds = segment_bounds(seg)
                kept = [i for i, ((a, b), (c, d)) in enumerate(zip(*bounds)) if b > a or d > c]
                for side, ranks in zip(bounds, kept_ranks(seg)):
                    direct = [kept.index(i) for i, (a, b) in enumerate(side) for _ in range(a, b)]
                    assert ranks.dtype == np.intp and ranks.tolist() == direct

    @pytest.mark.parametrize(
        "lengths,family,param,message",
        [
            ((3, 5), "static", 0, "static window size must be >= 1, got 0"),
            ((0, 5), "static", 2, "both sides must be non-empty, got lengths (0, 5)"),
            ((3, 0), "static", 0, "static window size must be >= 1, got 0"),
            ((3, 5), "adaptive", 0, "adaptive segment count must be >= 1, got 0"),
            ((0, 5), "adaptive", 0, "adaptive segment count must be >= 1, got 0"),
            ((2, 3), "static", None, "static window size must be >= 1, got None"),
        ],
    )
    def test_segment_pair_validates_eagerly(self, lengths, family, param, message):
        # the rule is checked before the sides
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            losses.segment_pair(lengths, family, param)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: losses.stacked_ranks([losses.SegmentedPair("static", 0, 3, 4)]),
             "static window size must be >= 1, got 0"),
            (lambda: losses.SegmentedPair("bogus", 2, 3, 4), "unknown composition family 'bogus'"),
            (lambda: losses.SegmentedPair("adaptive", 2, 3, 0),
             "both sides must be non-empty, got lengths (3, 0)"),
        ],
        ids=["stacked-ranks", "unknown-family", "empty-side"],
    )
    def test_a_record_built_directly_is_checked(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()


# every pair of side lengths up to 40 under every k and m from 1 to 12
GRID = [
    (family, param, len_w, len_l)
    for family in losses.FAMILIES
    for param in range(1, 13)
    for len_w in range(1, 41)
    for len_l in range(1, 41)
]


@pytest.fixture(scope="module")
def bounds_reference():
    """Per grid entry: the bounds-based ranks of each side and the number of
    segments non-empty on at least one side."""
    out = {}
    for family, param, len_w, len_l in GRID:
        seg = losses.segment_pair((len_w, len_l), family, param)
        kept = sum(b > a or d > c for (a, b), (c, d) in zip(*segment_bounds(seg)))
        out[family, param, len_w, len_l] = (*bounds_kept_ranks(seg), kept)
    return out


class TestClosedFormLayout:
    """``segment_layout`` ranks a whole list in closed form; it must give
    what each pair's reference bounds give."""

    def assert_layout_matches(self, reference, keys, with_scores):
        segmentation = [losses.segment_pair((lw, ll), f, p) for f, p, lw, ll in keys]
        scores = None
        if with_scores:
            rng = np.random.default_rng(len(keys))
            scores = [rng.uniform(size=ll) for _, _, _, ll in keys]
        layout = losses.segment_layout(segmentation, scores)
        want = [reference[key] for key in keys]
        sides = [ranks for w, l, _ in want for ranks in (w, l)]
        assert layout.ranks.dtype == np.intp
        assert np.array_equal(layout.ranks, np.concatenate(sides))
        assert layout.lengths.tolist() == [len(r) for r in sides]
        assert layout.kept.tolist() == [kept for _, _, kept in want]
        rejected = [
            -(1.0 - scores[i]) if with_scores else -np.ones(ll)
            for i, (_, _, _, ll) in enumerate(keys)
        ]
        weights = [w for (_, _, lw, _), r in zip(keys, rejected) for w in (np.ones(lw), r)]
        assert np.array_equal(layout.weights, np.concatenate(weights))

    @pytest.mark.parametrize("with_scores", [False, True], ids=["unweighted", "scored"])
    def test_each_parameter_alone(self, bounds_reference, with_scores):
        for family in losses.FAMILIES:
            for param in range(1, 13):
                keys = [key for key in GRID if key[:2] == (family, param)]
                self.assert_layout_matches(bounds_reference, keys, with_scores)

    @pytest.mark.parametrize("with_scores", [False, True], ids=["unweighted", "scored"])
    def test_families_and_parameters_mixed_in_one_list(self, bounds_reference, with_scores):
        order = np.random.default_rng(7).permutation(len(GRID))
        keys = [GRID[i] for i in order]
        self.assert_layout_matches(bounds_reference, keys, with_scores)

    def test_adaptive_ranks_do_not_depend_on_m_past_the_side_product(self):
        rng = np.random.default_rng(3)
        for len_w in range(1, 13):
            for len_l in range(1, 13):
                cap = len_w * len_l
                seg = losses.segment_pair((len_w, len_l), "adaptive", cap)
                want = [r.tolist() for r in bounds_kept_ranks(seg)]
                assert [r.tolist() for r in kept_ranks(seg)] == want
                for m in (cap + 1, 2 * cap + 1, int(rng.integers(cap, 8 * cap + 50))):
                    wider = losses.segment_pair((len_w, len_l), "adaptive", m)
                    assert [r.tolist() for r in bounds_kept_ranks(wider)] == want
                    assert [r.tolist() for r in kept_ranks(wider)] == want
                for m in (10**18, 10**40):
                    huge = losses.segment_pair((len_w, len_l), "adaptive", m)
                    assert list(python_kept_ranks("adaptive", m, len_w, len_l)) == want
                    assert [r.tolist() for r in kept_ranks(huge)] == want

    def test_segment_pair_records_only_what_defines_it(self):
        # O(1) whatever m: nothing is sized by the parameter
        seg = losses.segment_pair((5, 7), "adaptive", 10**12)
        assert (seg.family, seg.param, seg.len_w, seg.len_l) == ("adaptive", 10**12, 5, 7)
        assert [r.tolist() for r in kept_ranks(seg)] == list(
            python_kept_ranks("adaptive", 10**12, 5, 7)
        )
        giant = losses.segment_pair((5, 7), "static", 10**30)
        assert_ranks_match_bounds(giant)
        assert len(segment_bounds(giant)[0]) == 1

    def test_ids_beyond_int64_rejected_before_any_array(self):
        # (i + 1)·m at m = len_w·len_l reaches the cube of the side length
        side = 1 << 22
        with pytest.raises(ValidationError, match="overflow int64"):
            losses.segment_layout([losses.segment_pair((side, side - 1), "adaptive", 10**40)])


def assert_partition(bounds, length):
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
        seg = losses.segment_pair((len_w, len_l), "static", k)
        bounds = segment_bounds(seg)
        grid = max(len_w, len_l)
        n = -(-grid // k)
        for side, length, ranks in zip(bounds, (len_w, len_l), kept_ranks(seg)):
            assert len(side) == n
            assert_partition(side, length)
            position = np.arange(length)
            assert np.all(ranks * k <= position) and np.all(position < (ranks + 1) * k)
        assert all(b > a or d > c for (a, b), (c, d) in zip(*bounds))
        assert_ranks_match_bounds(seg)
        if k >= grid:
            assert n == 1

    @given(length=st.integers(1, 512), m=st.integers(1, 512))
    @settings(max_examples=200, deadline=None)
    def test_adaptive_partitions_uniformly(self, length, m):
        seg = losses.segment_pair((length, length), "adaptive", m)
        side = segment_bounds(seg)[0]
        sizes = [stop - start for start, stop in side]
        assert len(side) == m
        assert sum(sizes) == length
        assert_partition(side, length)
        lo, hi = length // m, -(-length // m)
        assert all(p in (lo, hi) for p in sizes)
        # kept segments are the non-empty ones, so the closed form's sizes
        # are near-uniform too
        assert all(p in (lo, hi) for p in kept_sizes(seg)[0])
        assert_ranks_match_bounds(seg)
        if m == 1:
            assert side == [(0, length)]

    @given(
        len_w=st.integers(1, 64),
        len_l=st.integers(1, 64),
        m=st.integers(1, 96),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_pair_alignment(self, len_w, len_l, m):
        for family in ("adaptive", "static"):
            seg = losses.segment_pair((len_w, len_l), family, m)
            w_bounds, l_bounds = segment_bounds(seg)
            assert len(w_bounds) == len(l_bounds)
            if family == "adaptive":
                assert len(w_bounds) == m
            assert w_bounds[-1][1] == len_w and l_bounds[-1][1] == len_l
            w_sizes = [b - a for a, b in w_bounds]
            l_sizes = [b - a for a, b in l_bounds]
            live = [i for i in range(len(w_bounds)) if w_sizes[i] or l_sizes[i]]
            for bounds, ranks in zip((w_bounds, l_bounds), kept_ranks(seg)):
                direct = [live.index(i) for i, (a, b) in enumerate(bounds) for _ in range(a, b)]
                assert ranks.tolist() == direct
