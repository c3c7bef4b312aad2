"""The array DW engine's batch kernels agree bit-for-bit with the tuple oracle.

Covers :mod:`repro.core.frontier_array` and the array engine built on it:

* ``pack_objectives`` copies tuple values into the packed array layout
  verbatim, and a single-segment ``segmented_pareto_filter`` returns
  exactly what the tuple kernel ``pareto_filter_sorted`` returns, tie
  choices included;
* the segmented batch kernels (``segmented_pareto_filter`` and its packed
  form, ``segment_strict_prune``, ``ragged_product_indices``) match
  straightforward per-segment references on random tie-heavy inputs;
* a regression matrix that ``pareto_dw(representation="array")`` equals
  both the ``kernels=True`` and ``kernels=False`` tuple paths on degree
  2-9 nets across the Lemma flags, stats parity included.

Objective values reuse the integer/non-dyadic pool of the tuple-kernel
tests so exact ties and rounding collisions occur constantly.
"""

import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import pareto_filter_sorted
from repro.core.frontier_array import (
    pack_objectives,
    ragged_product_indices,
    segment_strict_prune,
    segmented_pareto_filter,
    segmented_pareto_filter_packed,
)
from repro.core.pareto import objectives, pareto_filter
from repro.core.pareto_dw import DWStats, pareto_dw
from repro.geometry.net import random_net

# Same pool as the tuple-kernel tests: frequent exact ties, non-dyadic
# floats so sums exercise rounding.
coord = st.one_of(
    st.integers(0, 8).map(float),
    st.sampled_from([0.1, 0.3, 1.7, 2.5, 3.3, 10.1]),
)

few = settings(max_examples=200, deadline=None)

# nextafter neighbours of the pool values collide under addition.
_POOL = [0.1, 0.3, 1.7, 2.5, 3.3, 10.1]
collision_value = st.sampled_from(
    [v for base in _POOL for v in (base, math.nextafter(base, math.inf),
                                   math.nextafter(base, -math.inf))]
)


@st.composite
def solution_lists(draw, max_size=12):
    """Arbitrary solution lists; payloads are distinct observable indices."""
    n = draw(st.integers(0, max_size))
    return [(draw(coord), draw(coord), idx) for idx in range(n)]


@st.composite
def segmented_batches(draw, max_segments=5, max_size=40):
    """(seg, w, d) batches with non-decreasing segment ids and tie-heavy values."""
    n = draw(st.integers(0, max_size))
    nseg = draw(st.integers(1, max_segments))
    seg = np.sort(
        np.array([draw(st.integers(0, nseg - 1)) for _ in range(n)],
                 dtype=np.int64)
    )
    w = np.array([draw(collision_value) for _ in range(n)])
    d = np.array([draw(collision_value) for _ in range(n)])
    return seg, w, d


# ------------------------------------------------------------- round trip


def _arrays(sols):
    """The ``(w, d)`` float64 arrays of a tuple front."""
    w = np.array([s[0] for s in sols], dtype=np.float64)
    d = np.array([s[1] for s in sols], dtype=np.float64)
    return w, d


class TestRoundTrip:
    """Tuple values survive the packed array layout bit for bit."""

    @few
    @given(solution_lists())
    def test_tuple_array_tuple_is_bit_identical(self, sols):
        wd = pack_objectives(*_arrays(sols))
        back = [
            (w, d, s[2])
            for w, d, s in zip(wd.real.tolist(), wd.imag.tolist(), sols)
        ]
        assert back == sols

    @few
    @given(solution_lists())
    def test_values_copied_verbatim(self, sols):
        wd = pack_objectives(*_arrays(sols))
        for i, (sw, sd, _p) in enumerate(sols):
            # Bit-level equality, not approximate.
            assert wd[i].real.item() == sw and wd[i].imag.item() == sd

    def test_empty_round_trip(self):
        wd = pack_objectives(np.empty(0), np.empty(0))
        assert wd.shape == (0,)


# -------------------------------------------------------------- filtering


def _filter_one_front(sols):
    """The batch filter run on ``sols`` as a single segment."""
    seg = np.zeros(len(sols), dtype=np.int64)
    idx = segmented_pareto_filter(seg, *_arrays(sols))
    return [sols[i] for i in idx.tolist()]


class TestParetoFilterSortedArrays:
    """One segment of the batch filter is ``pareto_filter_sorted`` exactly."""

    @few
    @given(solution_lists())
    def test_matches_tuple_kernel_exactly(self, sols):
        # Survivors, their order and exact-duplicate tie choices.
        assert _filter_one_front(sols) == pareto_filter_sorted(sols)
        assert _filter_one_front(sols) == pareto_filter(sols)

    def test_empty_front(self):
        assert _filter_one_front([]) == []

    def test_single_point_survives(self):
        assert _filter_one_front([(1.0, 2.0, "p")]) == [(1.0, 2.0, "p")]

    def test_exact_duplicates_keep_first(self):
        assert _filter_one_front([(1.0, 2.0, "a"), (1.0, 2.0, "b")]) == [
            (1.0, 2.0, "a")
        ]


# ------------------------------------------------------- segmented kernels


def _ref_segmented_filter(seg, w, d):
    """Per-segment stable (w, d) sort + strict-d sweep, filter order."""
    idx = sorted(range(len(w)), key=lambda i: (seg[i], w[i], d[i]))
    keep, best, cur = [], None, None
    for i in idx:
        if seg[i] != cur:
            cur, best = seg[i], None
        if best is None or d[i] < best:
            keep.append(i)
            best = d[i]
    return keep


def _ref_strict_prune(starts, sizes, w, d):
    """Witness-dominance keep-mask, one segment at a time."""
    keep = np.ones(len(w), dtype=bool)
    for s, n in zip(starts.tolist(), sizes.tolist()):
        if n == 0:
            continue
        blkw, blkd = w[s : s + n], d[s : s + n]
        min_d, min_w = blkd.min(), blkw.min()
        wa = (min(bw for bw, bd in zip(blkw, blkd) if bd == min_d), min_d)
        wb = (min_w, min(bd for bw, bd in zip(blkw, blkd) if bw == min_w))
        for j in range(n):
            p = (blkw[j], blkd[j])
            for wit in (wa, wb):
                if wit[0] <= p[0] and wit[1] <= p[1] and wit != p:
                    keep[s + j] = False
    return keep


class TestSegmentedFilter:
    @few
    @given(segmented_batches())
    def test_matches_per_segment_reference(self, batch):
        seg, w, d = batch
        got = segmented_pareto_filter(seg, w, d)
        assert got.tolist() == _ref_segmented_filter(
            seg.tolist(), w.tolist(), d.tolist()
        )

    @few
    @given(segmented_batches())
    def test_packed_variant_agrees(self, batch):
        seg, w, d = batch
        wd = pack_objectives(w, d)
        assert (w.tolist(), d.tolist()) == (
            wd.real.tolist(), wd.imag.tolist()
        )
        assert segmented_pareto_filter_packed(seg, wd).tolist() == (
            segmented_pareto_filter(seg, w, d).tolist()
        )

    def test_empty(self):
        assert segmented_pareto_filter(
            np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
        ).shape == (0,)


class TestSegmentStrictPrune:
    @few
    @given(segmented_batches())
    def test_matches_witness_reference(self, batch):
        seg, w, d = batch
        nseg = int(seg.max()) + 1 if seg.size else 1
        sizes = np.bincount(seg, minlength=nseg)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        got = segment_strict_prune(starts, sizes, w, d)
        assert got.tolist() == _ref_strict_prune(starts, sizes, w, d).tolist()

    @few
    @given(segmented_batches())
    def test_sound_for_exact_filter(self, batch):
        # Pruning first must not change the exact filter's survivors.
        seg, w, d = batch
        nseg = int(seg.max()) + 1 if seg.size else 1
        sizes = np.bincount(seg, minlength=nseg)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        keep = segment_strict_prune(starts, sizes, w, d)
        sel = np.flatnonzero(keep)
        pruned = segmented_pareto_filter(seg[sel], w[sel], d[sel])
        direct = segmented_pareto_filter(seg, w, d)
        assert sel[pruned].tolist() == direct.tolist()

    def test_empty(self):
        assert segment_strict_prune(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0),
        ).shape == (0,)


class TestRaggedProductIndices:
    @few
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5))
    def test_row_major_enumeration(self, shapes):
        cnt1 = np.array([a for a, _ in shapes], dtype=np.int64)
        cnt2 = np.array([b for _, b in shapes], dtype=np.int64)
        start1 = np.concatenate(([0], np.cumsum(cnt1)[:-1])) if shapes else (
            np.empty(0, dtype=np.int64)
        )
        start2 = 100 + (
            np.concatenate(([0], np.cumsum(cnt2)[:-1])) if shapes else
            np.empty(0, dtype=np.int64)
        )
        i_idx, j_idx = ragged_product_indices(cnt1, cnt2, start1, start2)
        ref = [
            (start1[r] + i, start2[r] + j)
            for r in range(len(shapes))
            for i in range(cnt1[r])
            for j in range(cnt2[r])
        ]
        assert list(zip(i_idx.tolist(), j_idx.tolist())) == ref
        if len(shapes):
            # The row of each product is recoverable by searchsorted.
            rows = np.searchsorted(
                np.cumsum(cnt1 * cnt2), np.arange(i_idx.shape[0]), side="right"
            )
            assert rows.tolist() == [
                r
                for r in range(len(shapes))
                for _ in range(cnt1[r] * cnt2[r])
            ]

    def test_all_empty(self):
        i_idx, j_idx = ragged_product_indices(
            np.array([0, 2], dtype=np.int64),
            np.array([3, 0], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
            np.array([0, 0], dtype=np.int64),
        )
        assert i_idx.shape == j_idx.shape == (0,)


# ---------------------------------------- pareto_dw representation matrix


LEMMA_COMBOS = list(product([False, True], repeat=3))


class TestParetoDWArrayEquivalence:
    """representation="array" equals both tuple paths, stats included."""

    @pytest.mark.parametrize("degree", range(2, 10))
    def test_identical_frontier_across_lemma_flags(self, degree):
        net = random_net(
            degree, rng=random.Random(1000 + degree), grid=9, span=90.0
        )
        for lemma2, lemma3, lemma4 in LEMMA_COMBOS:
            kw = dict(
                lemma2=lemma2, lemma3=lemma3, lemma4=lemma4, with_trees=False
            )
            arr = pareto_dw(net, representation="array", **kw)
            for kernels in (False, True):
                ref = pareto_dw(net, kernels=kernels, **kw)
                assert objectives(arr) == objectives(ref), (
                    f"degree={degree} kernels={kernels} "
                    f"lemmas={(lemma2, lemma3, lemma4)}"
                )

    @pytest.mark.parametrize("degree", [4, 6, 8])
    def test_identical_payloads_with_trees(self, degree):
        net = random_net(
            degree, rng=random.Random(2000 + degree), grid=9, span=90.0
        )
        arr = pareto_dw(net, representation="array", with_trees=True)
        ref = pareto_dw(net, kernels=True, with_trees=True)
        # Backpointer structure is materialized identically, so the full
        # solutions — trees included — compare equal.
        assert objectives(arr) == objectives(ref)
        for (w, d, tree), (_, _, rtree) in zip(arr, ref):
            assert tree.edges() == rtree.edges()

    @pytest.mark.parametrize("degree", [5, 7, 9])
    def test_stats_parity(self, degree):
        net = random_net(
            degree, rng=random.Random(3000 + degree), grid=9, span=90.0
        )
        st_t, st_a = DWStats(), DWStats()
        ref = pareto_dw(net, kernels=True, stats=st_t, with_trees=False)
        arr = pareto_dw(
            net, representation="array", stats=st_a, with_trees=False
        )
        assert objectives(arr) == objectives(ref)
        # Workload counters are path-independent; allocation counters are
        # representation-specific and only sanity-checked.
        assert st_a.closure_extensions == st_t.closure_extensions
        assert st_a.merge_transitions == st_t.merge_transitions
        assert st_a.subsets == st_t.subsets
        assert st_a.max_front_size == st_t.max_front_size
        assert st_a.merge_candidates > 0
        assert st_a.closure_allocations > 0

    def test_invalid_representation_rejected(self):
        net = random_net(4, rng=random.Random(1), grid=9, span=90.0)
        with pytest.raises(ValueError, match="representation"):
            pareto_dw(net, representation="matrix")
