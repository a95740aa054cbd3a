import copy
import dataclasses
import logging

import numpy as np
import pytest

from ddmna.dataset import (
    ElementBinding,
    MeasurementSet,
    SamplingPlan,
    bindings_from_graph,
    checked_weight,
    generate_measurements,
    nearest_measurement,
    weighted_pair_distance,
)
from ddmna.ddsolver import (
    DDConfig,
    DDSolver,
    DDSolverError,
    KirchhoffSystem,
    KnownTangent,
    brute_force_timestep,
    run_transient_dd,
)
from ddmna.elements import LinearModel
from ddmna.netlist import build_incidence, parse_netlist, sources
from ddmna.reference import TraditionalSolver, kcl_residual, run_transient_traditional
from ddmna.scenarios import SCENARIOS, Scenario, build_scenario, synthesize_datasets
from ddmna.state import CircuitState, InitialCondition, TransientConfig

NO_L = np.zeros(0)

ONE_NODE_NET = "V1 1 0 DC 1\nR1 1 0 1\n"
ONE_NODE_SET = MeasurementSet("G", np.array([[0.5, 0.5], [1.0, 2.0], [2.0, 4.0]]))


def one_node_solver():
    graph = parse_netlist(ONE_NODE_NET)
    inc = build_incidence(graph)
    binds = [ElementBinding("R1", "G", "data", data=ONE_NODE_SET)]
    solver = DDSolver(graph, inc, binds, DDConfig())
    solver.weights[:] = solver.w_ref[:] = 1.0
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
    r1 = solver.names.index("R1")
    solver2.weights[r1] = solver2.w_ref[r1] = solver.weights[r1]
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
    w_r1, w_c1 = (solver.weights[solver.names.index(name)] for name in ("R1", "C1"))
    only_g = solver.energy_mismatch(zo, zx.copy(), 7.0) - 7.0 * 0.5 * (
        w_c1 * zo.v_c[0] ** 2 + zo.q_c[0] ** 2 / w_c1)
    per_g = 0.5 * (w_r1 * zo.v_g[0] ** 2 + zo.i_g[0] ** 2 / w_r1)
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
    solver.weights[:] = solver.w_ref[:] = 1.0
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
        v_src, i_src = sources(graph, times[k])
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


RLC_ISRC_NET = "I1 0 1 DC 1e-3\nR1 1 2 1e3\nL1 2 0 1e-1\nC1 1 0 1e-6\n"
STATE_FIELDS = ("phi", "v_g", "i_g", "v_c", "q_c", "psi_l", "i_l", "i_v")


def test_all_known_matches_traditional_both_schemes():
    # The RLC case starts from nonzero charge and flux, so both solvers' t0
    # states come from a held circuit with a voltage and a current source.
    # The last case runs backward Euler at h = 1 s, where a step's alpha is 1.
    cases = [
        (SCENARIOS["rc-linear"].netlist, 5e-3, 200, InitialCondition()),
        (RLC_ISRC_NET, 2e-3, 200,
         InitialCondition(q_c0=np.array([2e-6]), psi_l0=np.array([1e-4]))),
        ("V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-3\n", 10.0, 10, InitialCondition()),
    ]
    for net, t_end, steps, init in cases:
        graph = parse_netlist(net)
        inc = build_incidence(graph)
        known = bindings_from_graph(graph)
        for scheme in ("backward-euler", "trapezoidal"):
            cfg = TransientConfig(scheme=scheme, t_end=t_end, steps=steps, init=init)
            trad = run_transient_traditional(graph, inc, known, cfg)
            dd = run_transient_dd(graph, inc, known, cfg, DDConfig())
            for name in STATE_FIELDS:
                ref = np.array([getattr(s, name) for s in trad.states])
                got = np.array([getattr(s, name) for s in dd.states])
                assert np.abs(got - ref).max(initial=0.0) \
                    <= 1e-9 * np.abs(ref).max(initial=0.0), (net, scheme, name)


def test_all_known_linear_steps_take_one_projection():
    # with no data element and no known-nonlinear element, the first
    # Kirchhoff state of a step is final
    for net in (SCENARIOS["rc-linear"].netlist, RLC_ISRC_NET):
        graph = parse_netlist(net)
        inc = build_incidence(graph)
        known = bindings_from_graph(graph)
        cfg = TransientConfig(scheme="trapezoidal", t_end=2e-3, steps=50)
        dd = run_transient_dd(graph, inc, known, cfg, DDConfig())
        assert all(s.iterations == 1 and s.stop_reason == "selection-fixed"
                   for s in dd.step_details[1:]), net


def test_skipped_confirming_descent_would_keep_the_picks(monkeypatch):
    # Under constant weights with linear known elements, an iteration after
    # the first skips its descent.  A full descent there keeps every pick,
    # so the step's picks, selections and states are those of the full one.
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=50, n=200)
    data_step = DDSolver._data_step
    skipped = []

    def full_descent(self, system, alpha, zo, picks, ab, descend=True):
        before = picks.copy()
        out = data_step(self, system, alpha, zo, picks, ab)
        if not descend:
            assert np.array_equal(picks, before)
            skipped.append(1)
        return out

    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    monkeypatch.setattr(DDSolver, "_data_step", full_descent)
    full = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    assert len(skipped) >= cfg.steps  # one per step, at least
    assert np.array_equal(np.array([s.x for s in dd.states]), np.array([s.x for s in full.states]))
    assert [s.selected_indices for s in dd.step_details[1:]] == \
        [s.selected_indices for s in full.step_details[1:]]


def test_singular_projection_raises_solver_error():
    # at alpha = 0 a known capacitor stamps nothing, so node 1 of this
    # all-known circuit has no equation: the projection's matrix is singular
    graph = parse_netlist("I1 0 1 DC 1e-3\nC1 1 0 1e-6\n")
    solver = DDSolver(graph, build_incidence(graph), bindings_from_graph(graph))
    with pytest.raises(DDSolverError, match="singular projection system"):
        solver.project_to_kirchhoff(CircuitState.zeros(graph), 0.0, np.zeros(1), NO_L,
                                    *sources(graph, 0.0))


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


def test_each_system_factors_a_matrix_once(monkeypatch):
    # A known MLCC C1 at a nonzero charge beside a data R1.  The t0 iteration
    # re-linearises C1, a source of the held circuit whose slope is no entry
    # of the held matrix, so that matrix is factored once, and the state
    # equals the one fresh factors at every solve give.  In the first step no
    # matrix is factored twice: the quadratic reuses its projection's factors.
    scenario = dataclasses.replace(SCENARIOS["rc-nonlinear"], dd_names=("R1",))
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(t_end=scenario.t_end, steps=scenario.steps,
                          init=InitialCondition(q_c0=np.array([3e-5])))
    binds = synthesize_datasets(scenario, graph, known,
                                run_transient_traditional(graph, inc, known, cfg), 1000)
    factored = []
    inv = np.linalg.inv

    def counting_inv(a):
        factored.append(a.tobytes())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    init = (cfg.t0, *cfg.init.resolve(graph))
    solver = DDSolver(graph, inc, binds, DDConfig())
    state, zx = solver.initial_state(*init)
    assert len(factored) == 1

    solve = KirchhoffSystem.solve

    def fresh_solve(system, *args):
        system._slot = [None]
        return solve(system, *args)

    monkeypatch.setattr(KirchhoffSystem, "solve", fresh_solve)
    fresh_state, fresh_zx = DDSolver(graph, inc, binds, DDConfig()).initial_state(*init)
    monkeypatch.setattr(KirchhoffSystem, "solve", solve)
    assert np.array_equal(state.x, fresh_state.x) and np.array_equal(zx.x, fresh_zx.x)

    factored.clear()
    alpha = 1.0 / cfg.h
    trace = solver.solve_timestep(zx, alpha, alpha * state.q_c, NO_L,
                                  *sources(graph, cfg.times()[1]))[2]
    assert 1 <= len(factored) <= trace.iterations
    assert len(set(factored)) == len(factored)


def test_warm_started_step_equals_a_fresh_solvers():
    # A step warm-started from the solver's own last data state keeps the
    # last picks without a search (a measured pair is its own nearest pair)
    # and equals the same step on a fresh solver; a step from another data
    # state searches.  The solve counts differ by the fresh solver's first
    # build of the reduced quadratic.
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=20, scheme="backward-euler")
    solver = DDSolver(graph, inc, binds, DDConfig())
    state, zx = solver.initial_state(cfg.t0, *cfg.init.resolve(graph))
    zx0, alpha = zx, 1.0 / cfg.h
    searches = []
    pick = solver._pick_data
    solver._pick_data = lambda p: searches.append(len(searches)) or pick(p)

    def step_equals_a_fresh_solvers(zx, args):
        ref_state, ref_zx, ref_trace = DDSolver(graph, inc, binds, DDConfig()).solve_timestep(zx, *args)
        state, zx, trace = solver.solve_timestep(zx, *args)
        assert np.array_equal(state.x, ref_state.x) and np.array_equal(zx.x, ref_zx.x)
        for name in ("selected_indices", "em_history", "stop_reason", "iterations"):
            assert getattr(trace, name) == getattr(ref_trace, name)
        return state, zx

    for k, t in enumerate(cfg.times()[1:]):
        args = (alpha, alpha * state.q_c, NO_L, *sources(graph, t))
        state, zx = step_equals_a_fresh_solvers(zx, args)
        if k == 0:
            searches.clear()  # the initial state's charge moved the C pair off its pick
    assert not searches
    step_equals_a_fresh_solvers(zx0, args)
    assert searches


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
        solver.weights *= scale
        solver.w_ref *= scale
        v_src, i_src = sources(graph, cfg.h)
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
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig(max_iters=1))
    flags = [s.converged for s in dd.step_details[1:]]
    assert not all(flags)


def test_stop_reasons_and_one_warning_for_capped_steps(caplog):
    graph, inc, known, binds, cfg, trad = rc_data_setup(steps=5, n=2000)
    with caplog.at_level(logging.WARNING, logger="ddmna.ddsolver"):
        dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    reasons = {s.stop_reason for s in dd.step_details[1:]}
    assert reasons == {"selection-fixed"}
    assert not caplog.records

    with caplog.at_level(logging.WARNING, logger="ddmna.ddsolver"):
        dd = run_transient_dd(graph, inc, binds, cfg, DDConfig(max_iters=1))
    steps = dd.step_details[1:]
    assert [s.stop_reason for s in steps] == ["cap"] * 5
    assert not any(s.converged for s in steps)
    assert [r.getMessage() for r in caplog.records] == \
        ["5 of 5 data-driven steps stopped at max_iters=1"]


def test_kcl_residual_on_data_driven_traces():
    # the march records the rates each data-driven step solved for, so the
    # reference's discrete KCL check applies to the accepted Kirchhoff states
    isource = Scenario(name="isource", netlist="I1 0 1 DC 1e-3\nR1 1 0 1e3\nC1 1 0 1e-6\n",
                       dd_names=("R1",), scheme="trapezoidal", steps=50, t_end=1e-2,
                       metric_element="C1")
    for scenario in (*SCENARIOS.values(), isource):
        graph, inc, known = build_scenario(scenario)
        for scheme in ("backward-euler", "trapezoidal"):
            cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end / 10, steps=40)
            trad = run_transient_traditional(graph, inc, known, cfg)
            data = synthesize_datasets(scenario, graph, known, trad, 1000)
            for binds in (known, data):
                dd = run_transient_dd(graph, inc, binds, cfg,
                                      DDConfig(weight_rule=scenario.weight_rule))
                assert kcl_residual(inc, dd) <= 1e-10, (scenario.name, scheme)


# A mixed circuit for the whole-block data half-step and mismatch: data G and
# C elements, known linear G, C and L elements, a known diode and a known
# MLCC; twelve elements, so a pairwise sum would differ from the running one.
MIXED_NET = """V1 1 0 SIN 0 2 100
R1 1 2 100
R2 2 3 200
R3 3 0 1e3
L1 3 4 1e-3
L2 4 5 2e-3
C1 4 0 1e-6
C2 5 0 2e-6
D1 5 6 MODEL shockley(2.52e-9,1.752,0.02585,0.01)
C3 6 0 MODEL mlcc(1e-5,2e-6,1.0)
R4 6 7 2e3
C4 7 0 5e-7
R5 7 0 5e3
"""
# Data elements and their set sizes: the flat index holds sets of several sizes.
MIXED_DATA = {"R1": 300, "R2": 7, "C1": 1, "C4": 60}


def mixed_solver(rng, log_w=(-7.0, 3.0)):
    """The mixed circuit's solver, with weights log-uniform in 10 ** log_w."""
    graph = parse_netlist(MIXED_NET)
    binds = []
    for b in bindings_from_graph(graph):
        if b.name in MIXED_DATA:
            plan = SamplingPlan(-2.0, 2.0, MIXED_DATA[b.name])
            b = ElementBinding(b.name, b.group, "data",
                               data=generate_measurements(b.model, plan))
        binds.append(b)
    solver = DDSolver(graph, build_incidence(graph), binds, DDConfig())
    solver.weights[:] = solver.w_ref[:] = [10.0 ** rng.uniform(*log_w) for _ in solver.names]
    return graph, solver


def per_element_half_step(solver, zo):
    """The data half-step element by element, on copies of the solver's tangents."""
    zx = zo.copy()
    tangents = {(g, t.index): copy.copy(t) for g in "GCL" for t in solver.known[g]}
    dd, known = [], []
    for group in "GCL":
        for j, b in enumerate(solver.bindings[group]):
            w = float(solver.weights[solver.names.index(b.name)])
            pair = zo.pair(group, j)
            if b.mode == "data":
                p, idx = nearest_measurement(b.data, pair, w)
                dd.append(idx)
            elif isinstance(b.model, LinearModel):
                p = pair  # copied from zo as it is
            else:
                p = tangents[group, j].relinearize(float(pair[0]))
                known.append(tuple(p))
            zx.set_pair(group, j, p)
    return zx, (tuple(dd), tuple(known)), tangents


def per_element_mismatch(solver, zo, zx, alpha):
    """The mismatch element by element; a known element has no distance."""
    total = 0.0
    for group in "GCL":
        scale = 1.0 if group == "G" else alpha
        for j, b in enumerate(solver.bindings[group]):
            if b.mode != "data":
                continue
            w = float(solver.weights[solver.names.index(b.name)])
            total += scale * weighted_pair_distance(zo.pair(group, j), zx.pair(group, j),
                                                    w, group)
    return total


def test_block_half_step_equals_per_element_rule():
    rng = np.random.default_rng(10)
    for _ in range(5):
        graph, solver = mixed_solver(rng)
        assert [len(solver.bindings[g]) for g in "GCL"] == [6, 4, 2]
        for _ in range(4):
            zo = CircuitState.zeros(graph)
            zo.x[:] = rng.normal(size=zo.x.size) * 10.0 ** rng.uniform(-6, 0, zo.x.size)
            ref, ref_sel, ref_tangents = per_element_half_step(solver, zo)
            zx, sel = solver.project_to_data(zo)
            assert (zx.x == ref.x).all()
            assert sel == ref_sel
            for g in "GCL":
                for t in solver.known[g]:
                    r = ref_tangents[g, t.index]
                    assert (t.slope, t.offset) == (r.slope, r.offset)


def test_projection_does_not_read_known_pairs():
    # Known elements are constraints only, with no distance term: the
    # projection is the same bit for bit whatever their pairs in the data
    # state, and the data half-step keeps the Kirchhoff state's known-linear
    # pairs as they are.
    rng = np.random.default_rng(12)
    for _ in range(5):
        graph, solver = mixed_solver(rng)
        binds = [b for group in "GCL" for b in solver.bindings[group]]
        known = [row for row, b in enumerate(binds) if b.mode != "data"]
        linear = [row for row in known if isinstance(binds[row].model, LinearModel)]
        alpha = 10.0 ** rng.uniform(3, 6)
        args = (alpha, rng.normal(size=solver.n_c), rng.normal(size=solver.n_l),
                *sources(graph, 1e-4))
        for _ in range(4):
            zx = CircuitState.zeros(graph)
            zx.x[:] = rng.normal(size=zx.x.size) * 10.0 ** rng.uniform(-6, 0, zx.x.size)
            other = zx.copy()
            other.pairs()[known] = rng.normal(size=(len(known), 2))
            zo = solver.project_to_kirchhoff(zx, *args)
            zo_other = solver.project_to_kirchhoff(other, *args)
            assert np.array_equal(zo.x.view(np.int64), zo_other.x.view(np.int64))
            zx_next, _ = solver.project_to_data(zo)
            assert np.array_equal(zx_next.pairs()[linear].view(np.int64),
                                  zo.pairs()[linear].view(np.int64))


def test_block_mismatch_equals_per_element_sum():
    # Weights and coordinates of one scale make terms of one size, whose
    # running sum rounds differently from a pairwise one.
    rng = np.random.default_rng(11)
    for _ in range(20):
        graph, solver = mixed_solver(rng, log_w=(-0.3, 0.3))
        zo, zx = CircuitState.zeros(graph), CircuitState.zeros(graph)
        zo.x[:], zx.x[:] = rng.normal(size=(2, zo.x.size))
        alpha = rng.uniform(1.0, 3.0)
        assert solver.energy_mismatch(zo, zx, alpha) == \
            per_element_mismatch(solver, zo, zx, alpha)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_weights_must_be_positive_and_finite(bad):
    with pytest.raises(ValueError, match="0 < w < inf"):
        checked_weight(bad)


def test_known_elements_carry_no_weight_and_no_distance():
    # The rectifier with data R1 and known D1 and C1: the known elements'
    # weights are 0, D's diagonal, and their pairs add nothing to the mismatch.
    scenario = dataclasses.replace(SCENARIOS["rectifier"], dd_names=("R1",))
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme="trapezoidal", t_end=scenario.t_end, steps=40)
    binds = synthesize_datasets(scenario, graph, known,
                                run_transient_traditional(graph, inc, known, cfg), 1000)
    solver = DDSolver(graph, inc, binds, DDConfig())
    weights = dict(zip(solver.names, solver.weights.tolist()))
    assert weights["D1"] == 0.0 and weights["C1"] == 0.0
    assert weights["R1"] > 0.0
    rng = np.random.default_rng(13)
    rows = [solver.names.index(name) for name in ("D1", "C1")]
    for _ in range(10):
        zo, zx = CircuitState.zeros(graph), CircuitState.zeros(graph)
        zo.x[:], zx.x[:] = rng.normal(size=(2, zo.x.size))
        other = zx.copy()
        other.pairs()[rows] = rng.normal(size=(2, 2))
        assert solver.energy_mismatch(zo, zx, 3.0) == solver.energy_mismatch(zo, other, 3.0)


LADDER_NET = "V1 1 0 SIN 0 1 1000\n" + "".join(
    f"R{k} {k} {k + 1} 100\nC{k} {k + 1} 0 1e-7\n" for k in range(1, 26))


RL_NET = "V1 1 0 SIN 0 1 1000\nR1 1 2 10\nL1 2 3 1e-3\nL2 3 0 2e-3\nC1 3 0 1e-6\n"


@pytest.mark.parametrize("net, data", [
    (SCENARIOS["rc-linear"].netlist, SCENARIOS["rc-linear"].dd_names),
    (SCENARIOS["rectifier"].netlist, SCENARIOS["rectifier"].dd_names),
    (LADDER_NET, tuple(f"R{k}" for k in range(1, 26))),
    (RL_NET, ("R1", "L1"))],
    ids=["rc-linear", "rectifier", "ladder-25", "rlc"])
def test_kirchhoff_state_is_an_exact_lift_of_the_solution(net, data):
    # z = (phi, i_l, i_v, eta, lam_l, lam_v); the responses are i* - w A_g.T
    # eta, q* - w A_c.T eta and psi* + w lam_l at data elements, with * the
    # data state's pair, and slope * drive + offset at known ones
    graph = parse_netlist(net)
    inc = build_incidence(graph)
    by_name = {b.name: b for b in bindings_from_graph(graph)}
    rng = np.random.default_rng(5)
    known = {group: [KnownTangent(j, by_name[e.name].model, *rng.normal(size=2))
                     for j, e in enumerate(graph.groups[group]) if e.name not in data]
             for group in "GCL"}
    system = KirchhoffSystem(inc, known)
    nphi, n_l, n_v = graph.n - 1, graph.count("L"), graph.count("V")
    n = nphi + n_l + n_v
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 2 * n) * 10.0 ** rng.integers(-6, 3)
        z[rng.random(z.size) < 0.3] = -0.0
        zx = CircuitState.zeros(graph)
        zx.x[:] = rng.normal(size=zx.x.size)
        w = 10.0 ** rng.uniform(-3.0, 3.0, len(graph.elements) - n_v)
        w_g, w_c, w_l = np.split(w, [graph.count("G"), graph.count("G") + graph.count("C")])
        phi, i_l, i_v, eta, lam = np.split(z, np.cumsum([nphi, n_l, n_v, nphi]))
        state = system.state(z, zx, system.response_coefficients(w))
        want = CircuitState(phi=phi, v_g=inc.a_g.T @ phi, i_g=zx.i_g - w_g * (inc.a_g.T @ eta),
                            v_c=inc.a_c.T @ phi, q_c=zx.q_c - w_c * (inc.a_c.T @ eta),
                            psi_l=zx.psi_l + w_l * lam[:n_l], i_l=i_l, i_v=i_v)
        for group, response, drive in (("G", want.i_g, want.v_g), ("C", want.q_c, want.v_c),
                                       ("L", want.psi_l, want.i_l)):
            for t in known[group]:
                response[t.index] = t.slope * drive[t.index] + t.offset
        # bitwise, so each unknown's signed zero is kept as it is
        for name in ("phi", "v_g", "v_c", "i_l", "i_v"):
            assert np.array_equal(getattr(state, name).view(np.int64),
                                  getattr(want, name).view(np.int64)), name
        for name in ("i_g", "q_c", "psi_l"):
            assert np.array_equal(getattr(state, name), getattr(want, name)), name


@pytest.mark.parametrize("net", [RLC_ISRC_NET, LADDER_NET, RL_NET,
                                 SCENARIOS["rc-linear"].netlist],
                         ids=["rlc-isrc", "ladder-25", "rlc", "rc-linear"])
def test_all_known_projection_is_the_reference_stamp(net):
    # with no data element D = 0, and K is the reference solver's linear stamp
    graph = parse_netlist(net)
    inc = build_incidence(graph)
    known = bindings_from_graph(graph)
    solver = DDSolver(graph, inc, known, DDConfig())
    trad = TraditionalSolver(graph, inc, known)
    n = graph.n - 1 + graph.count("L") + graph.count("V")
    for alpha in (0.0, 1.0, 2.0 / 1e-5, 1.0 / 3e-7):
        m = solver.assemble_projection_matrix(alpha)
        stamp = trad._base(alpha)[1]  # [J_lin, E_n S], with E_n empty here
        assert np.array_equal(m[n:, :n].view(np.int64), stamp.view(np.int64))
        assert np.array_equal(m[:n, n:], stamp.T)
        assert not m[:n, :n].any() and not m[n:, n:].any()
