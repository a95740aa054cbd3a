"""Property tests: the nearest-neighbour index equals brute force for any
weight, and `FlatIndex.minimize` equals a scan of the whole set."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ddmna import dataset  # noqa: E402
from ddmna.dataset import (  # noqa: E402
    FlatIndex,
    MeasurementSet,
    NearestNeighborIndex,
    SamplingPlan,
    generate_measurements,
    nearest_measurement,
    weighted_pair_distance,
)
from ddmna.elements import ShockleyDiodeModel  # noqa: E402


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
        nearest = np.sort(index.nearest(0, q, w, k))
        assert np.array_equal(nearest, np.sort(brute_k_nearest(index.mset, q, k, w)))
        if w == index.weight:
            assert index.query(q)[1] == idx


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_flat_index_equals_per_set_brute_force(data):
    # Several sets of mixed sizes and kinds in one flat index, and sets cut
    # from the largest one: for each k, one of exactly k pairs and one of
    # 2k - 1.  Any number of queries, each in any set under its own weight,
    # and one more query in every cut set, each asked for every k (a set of
    # fewer than k pairs gives all of them).
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
    w = [draw(weights) for _ in seg] + [draw(weights)] * len(cut)
    for s, q, w_j in zip(seg + cut, queries, w):
        for k in KS:
            # by distance, ties to the lowest index
            assert flat.nearest(s, q, w_j, k).tolist() \
                == brute_k_nearest(sets[s][0], q, k, w_j).tolist()


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
    # distance to a line) or 2; g is any vector.  Centers are pairs of the
    # set (where q = 0, as in the data step) and half-lattice points.
    rng = np.random.default_rng(size)
    for trial in range(60):
        kind = "GCL"[trial % 3]
        scale = 2.0 ** rng.integers(-2, 3, size=2)
        sets = [MeasurementSet(kind, _curve_or_cloud(rng, size, (trial + j) % 3) * scale)
                for j in range(2)]
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
        ab = np.column_stack([mset.pairs[:, ia], mset.pairs[:, 1 - ia]])
        centers = list(ab[rng.integers(0, len(mset), size=3)])
        centers += list(rng.integers(-60, 61, size=(2, 2)) / 2.0 * scale[[ia, 1 - ia]])
        for center in centers:
            d = ab - center
            q = gram[0] * d[:, 0] ** 2 + 2 * gram[1] * d[:, 0] * d[:, 1] \
                + gram[2] * d[:, 1] ** 2 - 2 * d.dot(g)
            order = np.lexsort((np.arange(len(q)), q))
            pair = center[::-1] if ia else center  # in measurement order
            for k in KS:
                got = flat.minimize(s, tuple(center.tolist()), gram, g, k)
                assert got.tolist() == order[:k].tolist(), (trial, rank, center, k)
                for w in (0.25, 1.0, 4.0):  # the nearest pairs, g_aa <, = and > g_bb
                    assert flat.nearest(s, pair, w, k).tolist() \
                        == brute_k_nearest(mset, pair, k, w).tolist(), (trial, center, k, w)


def test_k_nearest_in_the_dense_stretch_of_a_diode_set():
    # A log-symmetric diode set packs most of its pairs into a tiny stretch
    # around the origin.  The k = 10 queries there, under weights from the
    # diode's slope at the origin to far above it, equal brute force, and
    # each scans one or two of its chunks of sqrt(N) pairs.
    diode = ShockleyDiodeModel(2.52e-9, 1.752, 25.85e-3, r_series=10e-3)
    mset = generate_measurements(diode, SamplingPlan(-diode.i_s * (1.0 - 1e-12), 0.3, 20_001,
                                                     "log-symmetric", drive="i"))
    flat = FlatIndex([mset])
    dense = np.flatnonzero(np.abs(mset.pairs[:, 1]) < 1e-9)
    assert len(mset) > 4096 and dense.size > len(mset) // 2
    queries = [np.zeros(2)] + list(mset.pairs[dense[::dense.size // 40]] * (1.0 + 1e-3))
    for w in (5.6e-8, 1e-3, 0.15, 5.0, 1e3):
        for q in queries:
            assert flat.nearest(0, q, w, 10).tolist() == brute_k_nearest(mset, q, 10, w).tolist()
            scanned, _ = flat._scan(0, (q[0], q[1]), (0.5 * w, 0.0, 0.5 / w), (0.0, 0.0), 10)
            assert scanned.size <= 2 * math.isqrt(len(mset)) + 1


@pytest.mark.parametrize("k", KS)
def test_minimize_of_a_distance_to_the_line_of_the_data(k):
    # The one-element case at its most degenerate: the data lie on a line
    # where q, with G of rank 1, takes its least value, so every chunk's
    # bound is that value and rounding alone ranks the pairs.  The answer
    # is the k least rounded q, as a scan of the whole set ranks them.
    rng = np.random.default_rng(k)
    a = np.sort(rng.uniform(-1.0, 1.0, 6000)) * 1e-3
    mset = MeasurementSet("G", np.column_stack([a, 0.37 * a + 2e-4]))
    flat = FlatIndex([mset])
    n = np.array([-0.37, 1.0]) * 3.1  # normal to the line
    gram = (n[0] * n[0], n[0] * n[1], n[1] * n[1])
    for offset in (0.0, 1e-5, -3e-4):  # of the center from the line, along b
        center = (float(a[1234]), float(mset.pairs[1234, 1]) + offset)
        g = tuple((-offset * n[1] * n).tolist())  # q least on the line
        q = dataset._quadratic(a - center[0], mset.pairs[:, 1] - center[1], gram, g)
        expected = np.lexsort((np.arange(len(q)), q))[:k]
        assert flat.minimize(0, center, gram, g, k).tolist() == expected.tolist()


def test_nearest_tie_across_chunks_under_any_weight():
    # Pairs on the a axis, given in descending order and held in ascending
    # order: the query at the origin is as near to a = -1, the last pair of
    # one chunk, as to a = +1, the first of the next.  Each chunk's bound is
    # exact, so the scan takes both under any weight, and the tie goes to
    # the lower index, a = -1.
    size = 5000
    first = math.isqrt(size) * 30  # the position of a = +1
    a = np.arange(size, dtype=float) - first  # a = -1 at position first - 1
    a[first:] += 1.0
    mset = MeasurementSet("G", np.column_stack([a[::-1], np.zeros(size)]))
    flat = FlatIndex([mset])
    for w in (1e-10, 1e-3, 1.0, 1e3, 1e10):
        assert flat.nearest(0, (0.0, 0.0), w).tolist() \
            == brute_k_nearest(mset, np.zeros(2), 1, w).tolist() == [first - 1]
