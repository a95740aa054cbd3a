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


KS = (1, 2, 10)  # k of the flat index's k-nearest queries


def brute_k_nearest(mset, q, k, w):
    """Indices of the k nearest pairs by distance, ties to the lowest index."""
    d = weighted_pair_distance(mset.pairs, q, w, mset.kind)
    return np.lexsort((np.arange(len(d)), d))[:k]


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
        assert np.array_equal(nearest, np.sort(brute_k_nearest(index.mset, q, k, w)))
        if w == index.weight:
            assert index.query(q)[1] == idx


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_flat_index_equals_per_set_brute_force(data):
    # Several sets of mixed sizes and kinds in one flat index, and sets cut
    # from the largest one: for each k, one of exactly k pairs and one of
    # 2k - 1.  Any number of queries, each in any set under its own weight,
    # and one more query in every cut set; for each k, one call answers
    # every query whose set has at least k pairs.
    draw = data.draw
    sets = draw(st.lists(lattice_sets(max_size=60), min_size=1, max_size=6))
    largest, scale = max(sets, key=lambda item: len(item[0]))
    sizes = sorted({size for k in KS for size in (k, 2 * k - 1) if size <= len(largest)})
    cut = list(range(len(sets), len(sets) + len(sizes)))
    sets += [(MeasurementSet(largest.kind, largest.pairs[:size]), scale) for size in sizes]
    flat = FlatIndex([mset for mset, _ in sets])
    seg = draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=10))
    queries = [half_lattice(draw, sets[s][1]) for s in seg] + [half_lattice(draw, scale)] * len(cut)
    # powers of two keep lattice ties exact; other weights keep symmetric ones
    weights = st.one_of(st.integers(-20, 20).map(lambda e: 2.0 ** e),
                        st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    w = np.array([draw(weights) for _ in seg] + [draw(weights)] * len(cut))
    seg = np.array(seg + cut)
    msets = [sets[s][0] for s in seg]
    ia = np.array([1 if m.kind == "L" else 0 for m in msets])
    rows = np.arange(len(seg))
    q = np.array(queries)
    q = np.array([q[rows, ia], q[rows, 1 - ia]])
    for k in KS:
        ask = np.array([j for j in rows if len(msets[j]) >= k], dtype=int)
        if not ask.size:
            continue
        idx, pos = flat.nearest(seg[ask], q[:, ask], w[ask], k)
        for j, picks, at in zip(ask, idx, pos):
            # by distance, ties to the lowest index, read at the positions
            assert picks.tolist() == brute_k_nearest(msets[j], queries[j], k, w[j]).tolist()
            picked = msets[j].pairs[picks]
            assert np.array_equal(flat.ab[:, at], [picked[:, ia[j]], picked[:, 1 - ia[j]]])


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
