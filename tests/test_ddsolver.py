import numpy as np
import pytest

from ddmna.dataset import ElementBinding, MeasurementSet, bindings_from_graph
from ddmna.ddsolver import (
    DDConfig,
    DDSolver,
    brute_force_timestep,
    run_transient_dd,
)
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import kcl_residual, run_transient_traditional
from ddmna.scenarios import SCENARIOS, build_scenario, synthesize_datasets
from ddmna.state import CircuitState, TransientConfig

NO_L = np.zeros(0)

ONE_NODE_NET = "V1 1 0 DC 1\nR1 1 0 1\n"
ONE_NODE_SET = MeasurementSet("G", np.array([[0.5, 0.5], [1.0, 2.0], [2.0, 4.0]]))


def one_node_solver():
    graph = parse_netlist(ONE_NODE_NET)
    inc = build_incidence(graph)
    binds = [ElementBinding("R1", "G", "data", data=ONE_NODE_SET)]
    solver = DDSolver(graph, inc, binds, DDConfig())
    solver.set_weight("R1", 1.0)
    return graph, solver


def rc_data_setup(steps=50, n=200, scheme="trapezoidal"):
    scenario = SCENARIOS["rc-linear"]
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scheme, t_end=5e-3, steps=steps)
    trad = run_transient_traditional(graph, inc, known, cfg)
    binds = synthesize_datasets(scenario, graph, known, trad, n)
    return graph, inc, known, binds, cfg, trad


def test_one_node_projection_keeps_free_current():
    # the source pins the node potential; the element current is free, so the
    # projection keeps the queried current and flips the source current
    graph, solver = one_node_solver()
    for v_dag, i_dag in ((0.0, 0.0), (3.0, -1.0), (0.7, 2.2)):
        zx = CircuitState.zeros(graph)
        zx.set_pair("G", 0, np.array([v_dag, i_dag]))
        zo = solver.project_to_kirchhoff(zx, 1.0, NO_L, NO_L,
                                         np.array([1.0]), NO_L)
        assert zo.v_g[0] == pytest.approx(1.0)
        assert zo.i_g[0] == pytest.approx(i_dag)
        assert zo.i_v[0] == pytest.approx(-i_dag)


def test_projection_idempotent_on_feasible_state():
    graph, solver = one_node_solver()
    zx = CircuitState.zeros(graph)
    zx.set_pair("G", 0, np.array([0.3, 0.8]))
    zo = solver.project_to_kirchhoff(zx, 1.0, NO_L, NO_L, np.array([1.0]), NO_L)
    zo2 = solver.project_to_kirchhoff(zo, 1.0, NO_L, NO_L, np.array([1.0]), NO_L)
    assert np.allclose(zo2.phi, zo.phi, atol=1e-14)
    assert np.allclose(zo2.i_g, zo.i_g, atol=1e-14)
    assert np.allclose(zo2.i_v, zo.i_v, atol=1e-14)


def test_projection_beats_random_feasible_states():
    graph, solver = one_node_solver()
    rng = np.random.default_rng(1)
    zx = CircuitState.zeros(graph)
    zx.set_pair("G", 0, np.array([0.2, 1.5]))
    zo = solver.project_to_kirchhoff(zx, 1.0, NO_L, NO_L, np.array([1.0]), NO_L)
    best = solver.energy_mismatch(zo, zx, 1.0)
    for _ in range(100):
        z = CircuitState.zeros(graph)
        z.phi[:] = 1.0
        z.v_g[:] = 1.0
        z.i_g[:] = rng.normal(scale=3.0)
        z.i_v[:] = -z.i_g
        assert solver.energy_mismatch(z, zx, 1.0) >= best - 1e-14


def test_project_to_data_member_query():
    graph, solver = one_node_solver()
    zo = CircuitState.zeros(graph)
    zo.set_pair("G", 0, np.array([1.0, 2.0]))
    zx, (dd_idx, _) = solver.project_to_data(zo)
    assert dd_idx == (1,)
    assert solver.energy_mismatch(zo, zx, 1.0) == 0.0


def test_project_to_data_element_independence():
    graph, inc, known, binds, cfg, trad = rc_data_setup()
    solver = DDSolver(graph, inc, binds, DDConfig())
    zo = CircuitState.zeros(graph)
    zo.set_pair("G", 0, np.array([0.4, 0.4e-3]))
    zo.set_pair("C", 0, np.array([0.6, 0.6e-6]))
    _, (sel_a, _) = solver.project_to_data(zo)

    # swap out the capacitor dataset; the resistor pick must not move
    binds2 = [b if b.name != "C1" else ElementBinding(
        "C1", "C", "data",
        data=MeasurementSet("C", np.array([[0.0, 0.0], [1.0, 1e-6]])))
        for b in binds]
    solver2 = DDSolver(graph, inc, binds2, DDConfig())
    solver2.set_weight("R1", solver.weights["R1"].value)
    _, (sel_b, _) = solver2.project_to_data(zo)
    assert sel_a[0] == sel_b[0]


def test_energy_mismatch_additivity():
    graph, inc, known, binds, cfg, trad = rc_data_setup()
    solver = DDSolver(graph, inc, binds, DDConfig())
    rng = np.random.default_rng(2)
    zo, zx = CircuitState.zeros(graph), CircuitState.zeros(graph)
    zo.set_pair("G", 0, rng.normal(size=2))
    zo.set_pair("C", 0, rng.normal(size=2))
    total = solver.energy_mismatch(zo, zx, alpha=7.0)
    only_g = solver.energy_mismatch(zo, zx.copy(), 7.0) - 7.0 * 0.5 * (
        solver.weights["C1"].value * zo.v_c[0] ** 2
        + zo.q_c[0] ** 2 / solver.weights["C1"].value)
    per_g = 0.5 * (solver.weights["R1"].value * zo.v_g[0] ** 2
                   + zo.i_g[0] ** 2 / solver.weights["R1"].value)
    assert only_g == pytest.approx(per_g)
    assert total == pytest.approx(only_g + (total - only_g))


def test_brute_force_hand_enumeration():
    graph, solver = one_node_solver()
    zo, combo, mm = brute_force_timestep(solver, 1.0, NO_L, NO_L,
                                         np.array([1.0]), NO_L)
    assert combo == (1,)
    assert mm == pytest.approx(0.0, abs=1e-15)
    # per-point distances: i is free, only the voltage gap costs anything
    expected = {0: 0.125, 1: 0.0, 2: 0.5}
    for idx, want in expected.items():
        zx = CircuitState.zeros(graph)
        zx.set_pair("G", 0, ONE_NODE_SET.pairs[idx])
        z = solver.project_to_kirchhoff(zx, 1.0, NO_L, NO_L, np.array([1.0]), NO_L)
        assert solver.energy_mismatch(z, zx, 1.0) == pytest.approx(want)


def test_solver_from_oracle_tuple_is_fixed_point():
    graph, solver = one_node_solver()
    zo_b, combo, mm = brute_force_timestep(solver, 1.0, NO_L, NO_L,
                                           np.array([1.0]), NO_L)
    zx_fp, sel = solver.project_to_data(zo_b)
    assert sel[0] == combo
    zo, _, trace = solver.solve_timestep(zx_fp, 1.0, NO_L, NO_L,
                                         np.array([1.0]), NO_L)
    assert trace.selected_indices[-1] == combo
    assert trace.final_mismatch == pytest.approx(mm, abs=1e-15)
    assert zo.v_g[0] == pytest.approx(1.0)
    assert zo.i_g[0] == pytest.approx(2.0)


def test_single_point_dataset_matches_oracle():
    graph = parse_netlist(ONE_NODE_NET)
    inc = build_incidence(graph)
    binds = [ElementBinding("R1", "G", "data",
                            data=MeasurementSet("G", np.array([[0.5, 1.5]])))]
    solver = DDSolver(graph, inc, binds, DDConfig())
    solver.set_weight("R1", 1.0)
    zo_b, combo, mm = brute_force_timestep(solver, 1.0, NO_L, NO_L,
                                           np.array([1.0]), NO_L)
    zx = solver.seed_state(NO_L, NO_L)
    _, _, trace = solver.solve_timestep(zx, 1.0, NO_L, NO_L,
                                        np.array([1.0]), NO_L)
    assert combo == (0,)
    assert trace.final_mismatch == pytest.approx(mm, abs=1e-15)


def _exact_state_bindings(graph, binds, trad):
    exact = []
    for b in binds:
        if b.mode != "data":
            exact.append(b)
            continue
        group = b.group
        j = [e.name for e in graph.groups[group]].index(b.name)
        pairs = np.array([s.pair(group, j) for s in trad.states])
        exact.append(ElementBinding(b.name, group, "data",
                                    data=MeasurementSet(group, pairs)))
    return exact


def test_seeded_dataset_exact_states_are_fixed_points():
    # datasets containing the exact traditional solution states leave nothing
    # to interpolate: seeded at the exact state, every per-step iteration
    # stays put with zero mismatch.  Backward Euler so the discrete history
    # carries no bootstrapped rates that would offset the exact points.
    graph, inc, known, binds, cfg, trad = rc_data_setup(
        steps=30, scheme="backward-euler")
    solver = DDSolver(graph, inc, _exact_state_bindings(graph, binds, trad),
                      DDConfig())
    alpha = 1.0 / cfg.h
    times = cfg.times()
    for k in range(1, len(times)):
        rhs_c = alpha * trad.states[k - 1].q_c
        v_src, i_src = solver.sources(times[k])
        zx = trad.states[k].copy()
        zo, _, trace = solver.solve_timestep(zx, alpha, rhs_c, NO_L,
                                             v_src, i_src)
        assert trace.final_mismatch <= 1e-20
        assert np.allclose(zo.phi, trad.states[k].phi, atol=1e-10)
        assert np.allclose(zo.q_c, trad.states[k].q_c, atol=1e-14)


def test_seeded_dataset_run_stays_close():
    # the full warm-started march over the same exact datasets may settle a
    # sample or two away from the exact index, but must stay tightly on track
    graph, inc, known, binds, cfg, trad = rc_data_setup(
        steps=30, scheme="backward-euler")
    dd = run_transient_dd(graph, inc,
                          _exact_state_bindings(graph, binds, trad),
                          cfg, DDConfig())
    ref = np.array([s.v_c[0] for s in trad.states])
    got = np.array([s.v_c[0] for s in dd.states])
    spacing = np.abs(np.diff(ref)).max()
    assert np.abs(got - ref).max() <= 3 * spacing


def test_all_known_matches_traditional_both_schemes():
    scenario = SCENARIOS["rc-linear"]
    graph, inc, known = build_scenario(scenario)
    for scheme in ("backward-euler", "trapezoidal"):
        cfg = TransientConfig(scheme=scheme, t_end=5e-3, steps=200)
        trad = run_transient_traditional(graph, inc, known, cfg)
        dd = run_transient_dd(graph, inc, known, cfg, DDConfig())
        ref = np.array([s.v_c[0] for s in trad.states])
        got = np.array([s.v_c[0] for s in dd.states])
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_monotone_descent_and_feasibility():
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=100, n=500)
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    for step in dd.step_details[1:]:
        hist = step.em_history
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-12
        assert step.feasibility_residual <= 1e-10
        assert step.converged


def test_warm_start_reduces_iterations():
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=200, n=2000)
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    iters = dd.iterations[1:]
    # most steps should settle immediately thanks to the warm start
    assert np.median(iters) <= 5
    assert iters.max() <= 200


def test_zero_source_zero_centred_data_first_step_zero():
    graph = parse_netlist("V1 1 0 DC 0\nR1 1 0 1\n")
    inc = build_incidence(graph)
    data = MeasurementSet("G", np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]]))
    binds = [ElementBinding("R1", "G", "data", data=data)]
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=5)
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    for s in dd.states:
        assert np.allclose(s.phi, 0.0) and np.allclose(s.i_g, 0.0)


def test_weight_scaling_leaves_projection_unchanged():
    graph, inc, known, binds, cfg, trad = rc_data_setup()
    alpha = 2.0 / cfg.h
    rng = np.random.default_rng(0)
    zx = CircuitState.zeros(graph)
    zx.v_g[:] = rng.normal()
    zx.i_g[:] = rng.normal() * 1e-3
    zx.v_c[:] = rng.normal()
    zx.q_c[:] = rng.normal() * 1e-6
    outs = []
    for scale in (1.0, 10.0):
        solver = DDSolver(graph, inc, binds, DDConfig())
        for name in list(solver.weights):
            solver.set_weight(name, solver.weights[name].value * scale)
        v_src, i_src = solver.sources(cfg.h)
        zo = solver.project_to_kirchhoff(zx, alpha, np.zeros(1), NO_L,
                                         v_src, i_src)
        outs.append(np.concatenate([zo.phi, zo.i_g, zo.q_c, zo.i_v]))
    assert np.allclose(outs[0], outs[1], atol=1e-12)


def test_stopping_on_selection_repetition():
    graph, solver = one_node_solver()
    zx = solver.seed_state(NO_L, NO_L)
    _, _, trace = solver.solve_timestep(zx, 1.0, NO_L, NO_L,
                                        np.array([1.0]), NO_L)
    assert trace.converged
    assert trace.iterations <= 3
    assert trace.selected_indices[-1] == trace.selected_indices[-2] \
        if trace.iterations > 1 else True


def test_non_convergence_flag_on_tiny_budget():
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=5, n=2000)
    dd = run_transient_dd(graph, inc, binds, cfg,
                          DDConfig(max_iters=1, tol_em=1e-30))
    flags = [s.converged for s in dd.step_details[1:]]
    assert not all(flags)


def test_kcl_residual_on_data_driven_traces():
    # the march records the rates each data-driven step solved for, so the
    # reference's discrete KCL check applies to the accepted Kirchhoff states
    for scenario in SCENARIOS.values():
        graph, inc, known = build_scenario(scenario)
        for scheme in ("backward-euler", "trapezoidal"):
            cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end / 10, steps=40)
            trad = run_transient_traditional(graph, inc, known, cfg)
            data = synthesize_datasets(scenario, graph, known, trad, 1000)
            for binds in (known, data):
                dd = run_transient_dd(graph, inc, binds, cfg,
                                      DDConfig(weight_rule=scenario.weight_rule))
                assert kcl_residual(inc, dd) <= 1e-10, (scenario.name, scheme)
