import numpy as np
import pytest

from ddmna.dataset import (
    ElementBinding,
    FlatIndex,
    MeasurementSet,
    NearestNeighborIndex,
    SamplingPlan,
    bindings_from_graph,
    chord_weight,
    generate_measurements,
    load_measurements,
    local_tangent_weight,
    nearest_measurement,
    operating_envelope,
    save_measurements,
    weighted_pair_distance,
)
from ddmna.ddsolver import DDConfig, run_transient_dd
from ddmna.elements import (
    LinearModel,
    MlccCapacitorModel,
    ShockleyDiodeModel,
    composite_diode_voltage,
    mlcc_charge,
)
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import run_transient_traditional, analytic_rc_voltage
from ddmna.state import TransientConfig
from ddmna import scenarios

DIODE_RD = ShockleyDiodeModel(2.52e-9, 1.752, 25.85e-3, r_series=10e-3)


def test_generate_linear_three_points():
    ms = generate_measurements(LinearModel("G", 1e-3), SamplingPlan(0.0, 1.0, 3))
    assert np.allclose(ms.pairs, [[0.0, 0.0], [0.5, 0.5e-3], [1.0, 1e-3]])


def test_generate_single_point_is_midpoint():
    ms = generate_measurements(LinearModel("G", 2.0), SamplingPlan(0.0, 2.0, 1))
    assert np.allclose(ms.pairs, [[1.0, 2.0]])


@pytest.mark.parametrize("lo, hi", [(-1.0, 2.0), (-3e-9, 5e-3), (0.0, 2.0), (-0.7, 0.0)])
@pytest.mark.parametrize("count", [2, 3, 4, 5])
def test_log_symmetric_grid_keeps_its_endpoints(lo, hi, count):
    grid = SamplingPlan(lo, hi, count, spacing="log-symmetric").grid()
    assert len(grid) == count
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] == pytest.approx(lo, rel=1e-15) and grid[-1] == pytest.approx(hi, rel=1e-15)
    # a zero bound is its own point, and a sign branch of one point is its bound
    n_neg = count // 2 if lo < 0.0 < hi else (count - 1 if hi == 0.0 else 0)
    n_pos = count - n_neg - (lo == 0.0 or hi == 0.0)
    if lo == 0.0 or hi == 0.0:
        assert 0.0 in grid
    if n_neg == 1:
        assert grid[0] == lo
    if n_pos == 1:
        assert grid[-1] == hi


def test_generate_diode_log_symmetric_consistency():
    plan = SamplingPlan(-DIODE_RD.i_s * 0.999, 10.0, 500,
                        spacing="log-symmetric", drive="i")
    ms = generate_measurements(DIODE_RD, plan)
    for v, i in ms.pairs:
        assert v == pytest.approx(composite_diode_voltage(DIODE_RD, i),
                                  rel=1e-12, abs=1e-15)


def test_generate_includes_endpoints():
    ms = generate_measurements(LinearModel("C", 1e-6), SamplingPlan(-2.0, 3.0, 7))
    assert ms.pairs[0, 0] == pytest.approx(-2.0)
    assert ms.pairs[-1, 0] == pytest.approx(3.0)


def test_weighted_distance_zero_for_identical_pairs():
    p = np.array([0.3, -1.2])
    assert weighted_pair_distance(p, p, 2.0, "G") == 0.0


def test_weighted_distance_hand_value():
    # w = 2 S, dv = 1 V, di = 2 A
    d = weighted_pair_distance(np.array([1.0, 2.0]), np.array([0.0, 0.0]),
                               2.0, "G")
    assert d == pytest.approx(2.0)


def test_weighted_distance_scaling_structure():
    p, q = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    base_a = weighted_pair_distance(np.array([1.0, 0.0]), np.zeros(2), 1.0, "G")
    base_b = weighted_pair_distance(np.array([0.0, 2.0]), np.zeros(2), 1.0, "G")
    scaled_a = weighted_pair_distance(np.array([1.0, 0.0]), np.zeros(2), 10.0, "G")
    scaled_b = weighted_pair_distance(np.array([0.0, 2.0]), np.zeros(2), 10.0, "G")
    assert scaled_a == pytest.approx(10.0 * base_a)
    assert scaled_b == pytest.approx(base_b / 10.0)


def test_weighted_distance_inductor_weight_on_current():
    # for L the current coordinate carries the weight, flux its reciprocal
    d = weighted_pair_distance(np.array([0.0, 1.0]), np.zeros(2), 4.0, "L")
    assert d == pytest.approx(0.5 * 4.0)
    d = weighted_pair_distance(np.array([2.0, 0.0]), np.zeros(2), 4.0, "L")
    assert d == pytest.approx(0.5 * 4.0 / 4.0)


def test_nearest_on_diagonal():
    ms = MeasurementSet("G", np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    p, idx = nearest_measurement(ms, np.array([1.1, 0.9]), 1.0)
    assert idx == 1 and np.allclose(p, [1.0, 1.0])


def test_nearest_member_query_is_exact():
    ms = MeasurementSet("C", np.array([[0.0, 0.0], [0.5, 1e-6]]))
    p, idx = nearest_measurement(ms, np.array([0.5, 1e-6]), 1e-6)
    assert idx == 1
    assert weighted_pair_distance(p, np.array([0.5, 1e-6]), 1e-6, "C") == 0.0


def test_nearest_tie_breaks_to_lowest_index():
    ms = MeasurementSet("G", np.array([[0.0, 0.0], [2.0, 0.0]]))
    _, idx = nearest_measurement(ms, np.array([1.0, 0.0]), 1.0)
    assert idx == 0


def test_nearest_invariant_under_far_append():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    ms = MeasurementSet("G", pts)
    q = rng.normal(size=2)
    _, idx = nearest_measurement(ms, q, 1.0)
    far = q + np.array([100.0, 100.0])
    ms2 = MeasurementSet("G", np.vstack([pts, far]))
    _, idx2 = nearest_measurement(ms2, q, 1.0)
    assert idx2 == idx


def test_nearest_beats_every_member_randomized():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.normal(size=(rng.integers(2, 200), 2))
        ms = MeasurementSet("G", pts)
        q = rng.normal(size=2)
        w = 10 ** rng.uniform(-3, 3)
        p, idx = nearest_measurement(ms, q, w)
        dists = [weighted_pair_distance(pair, q, w, "G") for pair in ms.pairs]
        assert dists[idx] == min(dists)


def test_kdtree_matches_brute_force():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(10 ** 4, 2)) * np.array([1.0, 1e-3])
    ms = MeasurementSet("G", pts)
    index = NearestNeighborIndex(ms, weight=1e-3)
    for _ in range(1000):
        q = rng.normal(size=2) * np.array([1.0, 1e-3])
        _, i_tree = index.query(q)
        _, i_scan = nearest_measurement(ms, q, 1e-3)
        assert i_tree == i_scan


def test_kdtree_off_weight_query_falls_back():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(300, 2))
    ms = MeasurementSet("G", pts)
    index = NearestNeighborIndex(ms, weight=1.0)
    q = rng.normal(size=2)
    _, i_tree = index.query(q, w=37.0)
    _, i_scan = nearest_measurement(ms, q, 37.0)
    assert i_tree == i_scan


def test_index_tie_at_build_weight_breaks_to_lowest_index():
    # Each query sits half way between two grid pairs, at the weight the
    # index was built with: an exact tie that the lower index must win.
    a = np.arange(20.0)
    ms = MeasurementSet("G", np.column_stack([a, np.zeros_like(a)]))
    index = NearestNeighborIndex(ms, weight=2.0)
    for m in range(19):
        q = np.array([m + 0.5, 0.0])
        assert index.query(q)[1] == nearest_measurement(ms, q, 2.0)[1] == m


def test_local_tangent_exact_on_linear_data():
    a = np.linspace(-1, 1, 30)
    ms = MeasurementSet("G", np.column_stack([a, 3.0 * a]))
    for k in (2, 4, 10):
        w = local_tangent_weight(NearestNeighborIndex(ms, 1.0), 0, np.array([0.2, 0.6]), k,
                                 1.0, w_min=1e-12, w_max=1e12)
        assert w == pytest.approx(3.0)


def test_local_tangent_near_mlcc_origin():
    mlcc = MlccCapacitorModel(10e-6, 2e-6, 1.0)
    v = np.linspace(-0.05, 0.05, 101)
    ms = MeasurementSet("C", np.column_stack([v, mlcc_charge(mlcc, v)]))
    w = local_tangent_weight(NearestNeighborIndex(ms, 5e-6), 0, np.array([0.0, 0.0]), 10,
                             5e-6, w_min=1e-12, w_max=1.0)
    assert mlcc.cinf <= w <= mlcc.c0
    assert w == pytest.approx(mlcc.c0, rel=1e-2)


def test_local_tangent_clamps():
    a = np.linspace(-1, 1, 20)
    ms = MeasurementSet("G", np.column_stack([a, 1e-30 * a]))
    w = local_tangent_weight(NearestNeighborIndex(ms, 1.0), 0, np.array([0.0, 0.0]), 5,
                             1.0, w_min=1e-9, w_max=1e9)
    assert w == 1e-9


def test_local_tangent_degenerate_keeps_previous():
    ms = MeasurementSet("G", np.array([[1.0, 0.0], [1.0, 2.0], [1.0, -1.0]]))
    prev = 0.7
    w = local_tangent_weight(NearestNeighborIndex(ms, prev), 0, np.array([1.0, 0.5]), 3,
                             prev, w_min=1e-9, w_max=1e9)
    assert w == prev


def test_local_tangent_on_a_multi_set_index_equals_one_set_index():
    # Sets of each kind and of sizes from below 2k to many times k in one
    # flat index: the weight of set s > 0 is the one-set index's, bit for bit.
    rng = np.random.default_rng(3)
    mlcc = MlccCapacitorModel(10e-6, 2e-6, 1.0)
    v = np.linspace(-0.05, 0.05, 101)
    i = np.geomspace(1e-9, 1e-1, 300)
    sets = [MeasurementSet("G", rng.normal(size=(40, 2))),
            MeasurementSet("C", np.column_stack([v, mlcc_charge(mlcc, v)])),
            MeasurementSet("G", np.column_stack([composite_diode_voltage(DIODE_RD, i), i])),
            MeasurementSet("L", np.column_stack([1e-3 * v, v]) + 1e-6 * rng.normal(size=(101, 2))),
            MeasurementSet("G", rng.normal(size=(15, 2)))]
    flat = FlatIndex(sets)
    for s, ms in enumerate(sets):
        for pair in ms.pairs[rng.integers(0, len(ms), size=5)] * 1.01:
            for k in (2, 10, 20):
                for current in (1e-3, 1.0, 1e3):
                    args = (pair, k, current, 1e-12, 1e12)
                    assert local_tangent_weight(flat, s, *args) \
                        == local_tangent_weight(NearestNeighborIndex(ms, 1.0), 0, *args)


def test_operating_envelope_constant_trace():
    graph = parse_netlist("V1 1 0 DC 1\nR1 1 0 1e3\n")
    inc = build_incidence(graph)
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=10)
    trace = run_transient_traditional(graph, inc, bindings_from_graph(graph), cfg)
    env = operating_envelope(trace, graph, margin=1.2)
    lo, hi = env["R1"]
    assert lo == pytest.approx(0.8) and hi == pytest.approx(1.2)


def test_operating_envelope_covers_rc_transient():
    graph = parse_netlist("V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n")
    inc = build_incidence(graph)
    cfg = TransientConfig(scheme="trapezoidal", t_end=5e-3, steps=500)
    trace = run_transient_traditional(graph, inc, bindings_from_graph(graph), cfg)
    env = operating_envelope(trace, graph, margin=1.0)
    lo, hi = env["C1"]
    v_final = analytic_rc_voltage(1e3, 1e-6, 1.0, 5e-3)
    assert lo <= 0.0 and hi >= v_final * 0.999


def test_measurement_set_drops_duplicates():
    ms = MeasurementSet("G", np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    assert len(ms) == 2


def _signed_zero_pairs(rng, n):
    """n pairs on a half-integer lattice, so that rows repeat, about a third
    of the coordinates negated, so that zeros come with either sign."""
    pairs = rng.integers(-2, 3, size=(n, 2)) * 0.5
    pairs[rng.random(pairs.shape) < 0.3] *= -1.0
    return pairs


def test_duplicate_rule_equals_unique_rows(caplog):
    # The set holds, bit for bit, the first occurrence of each row that
    # np.unique(axis=0) keeps, ordered by the weight-carrying coordinate a,
    # then by b (for L, a is column 1), and warns of the rest; -0.0 and 0.0
    # are one value, and a kept zero keeps the sign it was given.
    rng = np.random.default_rng(4)
    for kind, ia in (("G", 0), ("C", 0), ("L", 1)):
        for n in (1, 2, 7, 50, 400):
            for _ in range(10):
                pairs = _signed_zero_pairs(rng, n)
                _, first = np.unique(pairs[:, [ia, 1 - ia]], axis=0, return_index=True)
                caplog.clear()
                ms = MeasurementSet(kind, pairs)
                assert np.array_equal(ms.pairs.view(np.int64), pairs[first].view(np.int64))
                dropped = n - len(first)
                assert [r.getMessage() for r in caplog.records] == (
                    [f"dropping {dropped} duplicate measurement pairs"] if dropped else [])
        for given in ([[-0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [-0.0, 1.0]]):
            held = MeasurementSet(kind, given).pairs
            assert held.shape == (1, 2) and np.signbit(held[0, 0]) == np.signbit(given[0][0])


def test_presorted_pairs_skip_the_sort(caplog, monkeypatch):
    # Rows already in the held order take no sort and are held as given,
    # bar duplicates; a shuffled copy, which takes the sort, gives the same
    # set (values compare as numbers, so a zero's sign may differ) and the
    # same warning.
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    rng = np.random.default_rng(5)
    for kind, ia in (("G", 0), ("C", 0), ("L", 1)):
        for n in (2, 7, 50, 400):
            pairs = _signed_zero_pairs(rng, n)
            presorted = pairs[lexsort((pairs[:, 1 - ia], pairs[:, ia]))]
            held, warnings = [], []
            for given in (presorted, presorted[rng.permutation(n)]):
                sorts.clear()
                caplog.clear()
                held.append(MeasurementSet(kind, given).pairs)
                warnings.append([r.getMessage() for r in caplog.records])
                if given is presorted:
                    assert sorts == []
            _, first = np.unique(presorted[:, [ia, 1 - ia]], axis=0, return_index=True)
            assert np.array_equal(held[0].view(np.int64), presorted[np.sort(first)].view(np.int64))
            assert np.array_equal(*held)
            assert warnings[0] == warnings[1]


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_synthesized_sets_arrive_in_the_held_order(name, monkeypatch):
    # The built-in scenarios' sets are synthesized in the held order, under
    # either scheme's envelope, so they take no sort, and the set order, the
    # selection indices and the built-in traces stay those of the grid.
    sc = scenarios.SCENARIOS[name]
    graph, inc, known = scenarios.build_scenario(sc)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    for scheme in ("backward-euler", "trapezoidal"):
        cfg = TransientConfig(scheme=scheme, t_end=sc.t_end, steps=sc.steps)
        trad = run_transient_traditional(graph, inc, known, cfg)
        for n in (100, 1000):
            scenarios.synthesize_datasets(sc, graph, known, trad, n)
            assert sorts == [], (scheme, n)


def test_a_shuffled_data_csv_gives_the_same_data_driven_run(tmp_path):
    # A data CSV may list its pairs in any order: the runs on shuffled
    # copies of sorted files equal the runs on the sorted files, trace and
    # selection indices alike, under either weight rule.
    net = "V1 1 0 SIN 0 1 100\nR1 1 2 DATA r.csv\nL1 2 3 DATA l.csv\nC1 3 0 DATA c.csv\n"
    sets = {"r": (LinearModel("G", 1e-2), SamplingPlan(-1.5, 1.5, 301)),
            "l": (LinearModel("L", 0.1), SamplingPlan(-0.02, 0.02, 201, drive="i")),
            "c": (MlccCapacitorModel(1e-5, 2e-6, 1.0), SamplingPlan(-1.5, 1.5, 251))}
    rng = np.random.default_rng(6)
    for order in ("sorted", "shuffled"):
        (tmp_path / order).mkdir()
        for stem, (model, plan) in sets.items():
            ms = generate_measurements(model, plan)
            if order == "shuffled":
                ms.pairs = ms.pairs[rng.permutation(len(ms))]
            save_measurements(ms, tmp_path / order / f"{stem}.csv")
    graph = parse_netlist(net)
    inc = build_incidence(graph)
    cfg = TransientConfig(scheme="trapezoidal", t_end=2e-2, steps=80)
    for rule in ("constant", "local-tangent"):
        runs = [run_transient_dd(graph, inc, bindings_from_graph(graph, str(tmp_path / order)),
                                 cfg, DDConfig(weight_rule=rule))
                for order in ("sorted", "shuffled")]
        assert np.array_equal(runs[0].x, runs[1].x)
        assert [d.selected_indices for d in runs[0].step_details[1:]] \
            == [d.selected_indices for d in runs[1].step_details[1:]]


def test_csv_round_trip(tmp_path):
    ms = generate_measurements(LinearModel("C", 1e-6), SamplingPlan(0.0, 1.0, 11))
    path = tmp_path / "c.csv"
    save_measurements(ms, path)
    text = path.read_text()
    assert text.splitlines()[0] == "v,q"
    loaded = load_measurements(path)
    assert loaded.kind == "C"
    assert np.allclose(loaded.pairs, ms.pairs)


def test_csv_headers_by_kind(tmp_path):
    for kind, model, header in (("G", LinearModel("G", 1.0), "v,i"),
                                ("L", LinearModel("L", 1e-3), "psi,i")):
        ms = generate_measurements(model, SamplingPlan(0.0, 1.0, 3, drive="i" if kind == "L" else "v"))
        path = tmp_path / f"{kind}.csv"
        save_measurements(ms, path)
        assert path.read_text().splitlines()[0] == header


def test_chord_weight_scale():
    ms = MeasurementSet("G", np.array([[0.0, 0.0], [2.0, 1.0]]))
    assert chord_weight(ms) == pytest.approx(0.5)
