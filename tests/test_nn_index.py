"""Property tests: the nearest-neighbour index equals brute force for any
weight, and `FlatIndex.minimize` equals a scan of the whole set."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ddmna.dataset import (  # noqa: E402
    FlatIndex,
    MeasurementSet,
    NearestNeighborIndex,
    nearest_measurement,
    weighted_pair_distance,
)


@st.composite
def lattice_sets(draw, max_size=40):
    """(measurement set, coordinate scale) on a small integer lattice.

    Coordinates are integers (curves: cumulative sums of non-negative steps)
    times powers of two, so coordinates repeat and many distances tie exactly.
    """
    kind = draw(st.sampled_from("GCL"))
    n = draw(st.integers(1, max_size))
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
    return MeasurementSet(kind, xy * scale), scale


def half_lattice(draw, scale):
    """A query on the half-integer lattice of a set with this scale."""
    halves = st.integers(-16, 16)
    return np.array(draw(st.tuples(halves, halves)), float) / 2.0 * scale


@st.composite
def indexed_queries(draw):
    """(index, query pairs, query weight) of one lattice set."""
    mset, scale = draw(lattice_sets())
    w0 = 2.0 ** draw(st.integers(-10, 10))
    index = NearestNeighborIndex(mset, w0)
    queries = [half_lattice(draw, scale) for _ in range(draw(st.integers(1, 8)))]
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


def position(flat, g, i):
    """Position of pair i of its set in segment g of a flat index."""
    lo = flat.off[g]
    return lo + int(np.flatnonzero(flat.idx[lo:flat.off[g + 1]] == i)[0])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_flat_index_equals_per_set_brute_force(data):
    # Several sets of mixed sizes and kinds in one flat index; any number of
    # queries, each in any set under its own weight, answered in one call.
    draw = data.draw
    sets = draw(st.lists(lattice_sets(max_size=60), min_size=1, max_size=6))
    flat = FlatIndex([mset for mset, _ in sets])
    seg = np.array(draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=10)))
    msets = [sets[s][0] for s in seg]
    queries = [half_lattice(draw, sets[s][1]) for s in seg]
    # powers of two keep lattice ties exact; other weights keep symmetric ones
    w = np.array([draw(st.one_of(st.integers(-20, 20).map(lambda e: 2.0 ** e),
                                 st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)))
                  for _ in seg])
    ia = np.array([1 if m.kind == "L" else 0 for m in msets])
    rows = np.arange(len(seg))
    q = np.array(queries)
    q = np.array([q[rows, ia], q[rows, 1 - ia]])
    expected = [nearest_measurement(m, p, wj)[1] for m, p, wj in zip(msets, queries, w)]
    # The hint never changes the answer: none, arbitrary pairs, the farthest pairs.
    arbitrary = [draw(st.integers(0, len(m) - 1)) for m in msets]
    farthest = [int(np.argmax(weighted_pair_distance(m.pairs, p, wj, m.kind)))
                for m, p, wj in zip(msets, queries, w)]
    # as positions in the a segments and in the b segments
    arbitrary = [position(flat, s, i) for s, i in zip(seg, arbitrary)]
    farthest = [position(flat, s + len(sets), i) for s, i in zip(seg, farthest)]
    for hint in (None, np.array(arbitrary), np.array(farthest)):
        idx, pos = flat.nearest(seg, q, w, hint)
        assert idx.tolist() == expected
        picked = np.array([m.pairs[i] for m, i in zip(msets, expected)])
        assert np.array_equal(flat.ab[:, pos], [picked[rows, ia], picked[rows, 1 - ia]])


def _curve_or_cloud(rng, n, shape):
    """Integer pairs: a cloud, or an increasing or decreasing curve."""
    if shape == 0:
        return rng.integers(-30, 31, size=(n, 2))
    xy = np.cumsum(rng.integers(0, 3, size=(n, 2)), axis=0)
    xy -= xy[n // 2]
    if shape == 2:
        xy[:, 1] *= -1
    return xy


@pytest.mark.parametrize("size", [60, 5000], ids=["scan", "chunks"])
def test_minimize_equals_brute_force(size):
    # Small integers times powers of two keep every value of the quadratic
    # exact, so ties are exact.  G has rank 0, 1 (the one-element case: the
    # distance to a line) or 2; g is any vector.
    rng = np.random.default_rng(size)
    for trial in range(60):
        kind = "GCL"[trial % 3]
        sets = [MeasurementSet(kind, _curve_or_cloud(rng, size, (trial + j) % 3)
                               * 2.0 ** rng.integers(-2, 3, size=2)) for j in range(2)]
        flat = FlatIndex(sets)
        rank = trial % 4
        if rank == 0:
            gram = (0.0, 0.0, 0.0)
        elif rank == 1:
            n_a, n_b = rng.integers(-3, 4, size=2)
            c = 2.0 ** int(rng.integers(-2, 3))
            gram = (c * n_a * n_a, c * n_a * n_b, c * n_b * n_b)
        else:
            g_ab = float(rng.integers(-3, 4))
            gram = (abs(g_ab) + float(rng.integers(1, 4)), g_ab, abs(g_ab) + float(rng.integers(1, 4)))
        g = tuple(float(x) for x in rng.integers(-40, 41, size=2) * 2.0 ** rng.integers(-2, 3))
        s = int(rng.integers(0, 2))
        mset = sets[s]
        ia = 1 if kind == "L" else 0
        for cur in rng.integers(0, len(mset), size=5):
            d = mset.pairs - mset.pairs[cur]
            d = np.column_stack([d[:, ia], d[:, 1 - ia]])
            q = gram[0] * d[:, 0] ** 2 + 2 * gram[1] * d[:, 0] * d[:, 1] \
                + gram[2] * d[:, 1] ** 2 - 2 * d.dot(g)
            expected = int(np.flatnonzero(q == q.min())[0])
            assert flat.minimize(s, int(cur), gram, g) == expected, (trial, rank, int(cur))
