"""Property test: the nearest-neighbour index equals brute force for any weight."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ddmna.dataset import (  # noqa: E402
    MeasurementSet,
    NearestNeighborIndex,
    nearest_measurement,
    weighted_pair_distance,
)


@st.composite
def indexed_queries(draw):
    """(index, query pairs, query weight) on small integer lattices.

    Coordinates are integers (curves: cumulative sums of non-negative steps)
    times powers of two, and queries sit on the half-integer lattice, so
    coordinates repeat and many distances tie exactly.
    """
    kind = draw(st.sampled_from("GCL"))
    n = draw(st.integers(1, 40))
    ints = st.integers(-6, 6)
    if draw(st.booleans()):
        xy = np.array(draw(st.lists(st.tuples(ints, ints), min_size=n, max_size=n)), float)
    else:
        steps = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        xy = np.column_stack([np.cumsum(draw(steps)), np.cumsum(draw(steps))]).astype(float)
        xy -= xy[n // 2]
        if draw(st.booleans()):
            xy[:, 1] *= -1.0  # decreasing curve
    scale = np.array([2.0 ** draw(st.integers(-20, 20)), 2.0 ** draw(st.integers(-20, 20))])
    mset = MeasurementSet(kind, xy * scale)
    w0 = 2.0 ** draw(st.integers(-10, 10))
    index = NearestNeighborIndex(mset, w0)
    halves = st.integers(-16, 16)
    queries = [np.array(q, float) / 2.0 * scale
               for q in draw(st.lists(st.tuples(halves, halves), min_size=1, max_size=8))]
    ratio = draw(st.one_of(st.just(1.0), st.floats(-9.0, 9.0).map(lambda e: 10.0 ** e)))
    return index, queries, w0 * ratio


def brute_k_nearest(mset, q, k, w):
    d = weighted_pair_distance(mset.pairs, q, w, mset.kind)
    return np.sort(np.lexsort((np.arange(len(d)), d))[:k])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(indexed_queries(), st.sampled_from([1, 10]))
def test_index_equals_brute_force(case, k):
    index, queries, w = case
    for q in queries:
        p, idx = index.query(q, w=w)
        _, expected = nearest_measurement(index.mset, q, w)
        assert idx == expected
        assert np.array_equal(p, index.mset.pairs[expected])
        nearest = index.k_nearest(q, k, w=w)
        assert np.array_equal(nearest, brute_k_nearest(index.mset, q, k, w))
        if w == index.weight:
            assert index.query(q)[1] == idx


@settings(max_examples=100, deadline=None, derandomize=True)
@given(indexed_queries(), st.integers(-3, 3))
def test_step_in_a_walks_the_weighted_coordinate_order(case, shift):
    index = case[0]
    pairs, ia = index.mset.pairs, 1 if index.mset.kind == "L" else 0
    order = np.argsort(pairs[:, ia], kind="stable")
    for pos, idx in enumerate(order):
        expected = order[min(max(pos + shift, 0), len(order) - 1)]
        assert index.step_in_a(int(idx), shift) == expected
