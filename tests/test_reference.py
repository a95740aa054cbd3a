import math

import numpy as np
import pytest

from ddmna import elements as em
from ddmna import reference
from ddmna.dataset import bindings_from_graph
from ddmna.ddsolver import DDConfig, run_transient_dd
from ddmna.netlist import build_incidence, held_circuit, parse_netlist, sources
from ddmna.reference import (
    SolverError,
    TraditionalSolver,
    analytic_rc_voltage,
    kcl_residual,
    run_transient_traditional,
)
from ddmna.scenarios import SCENARIOS, build_scenario, synthesize_datasets
from ddmna.state import CircuitState, InitialCondition, TransientConfig

RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"
MLCC_NET = "V1 1 0 DC 10\nR1 1 2 2e4\nC1 2 0 MODEL mlcc(1e-5,2e-6,1.0)\n"
RECT_NET = ("V1 1 0 SIN 0 5 100\n"
            "D1 1 2 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n"
            "C1 2 0 1e-4\n"
            "R1 2 0 1e3\n")
# every element kind: a linear R-C stage, a diode with series R, an MLCC, an
# inductor and a current source
MIXED_NET = ("V1 1 0 SIN 0 5 100\n"
             "R1 1 2 1e3\n"
             "C1 2 0 1e-6\n"
             "D1 2 3 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n"
             "C2 3 0 MODEL mlcc(1e-5,2e-6,1.0)\n"
             "L1 3 4 1e-3\n"
             "R2 4 0 100\n"
             "I1 0 4 DC 1e-3\n")
LADDER_NET = "V1 1 0 SIN 0 1 1000\n" + "".join(
    f"R{k} {k} {k + 1} 100\nC{k} {k + 1} 0 1e-7\n" for k in range(1, 26))


def _setup(net):
    graph = parse_netlist(net)
    inc = build_incidence(graph)
    return graph, inc, bindings_from_graph(graph)


def _max_vc_error(trace, cfg, r=1e3, c=1e-6, v=1.0):
    ts = cfg.times()
    return max(abs(s.v_c[0] - analytic_rc_voltage(r, c, v, t))
               for s, t in zip(trace.states, ts))


def test_analytic_rc_voltage_values():
    assert analytic_rc_voltage(1e3, 1e-6, 1.0, 0.0) == 0.0
    assert analytic_rc_voltage(1e3, 1e-6, 1.0, 1e-3) == pytest.approx(
        1.0 - math.exp(-1.0))
    assert analytic_rc_voltage(1e3, 1e-6, 1.0, 1.0) == pytest.approx(1.0)


def test_backward_euler_scalar_update_first_step():
    # one-step hand elimination: v1 = (v0 + h V / RC) / (1 + h / RC)
    graph, inc, binds = _setup(RC_NET)
    cfg = TransientConfig(scheme="backward-euler", t_end=5e-3, steps=100)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    h, rc = cfg.h, 1e-3
    expect = (0.0 + h * 1.0 / rc) / (1.0 + h / rc)
    assert trace.states[1].v_c[0] == pytest.approx(expect, rel=1e-12)


def test_zero_sources_zero_history_stay_zero():
    graph, inc, binds = _setup("V1 1 0 DC 0\nR1 1 2 1e3\nC1 2 0 1e-6\n")
    cfg = TransientConfig(scheme="trapezoidal", t_end=1e-3, steps=20)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    for s in trace.states:
        assert np.allclose(s.phi, 0.0) and np.allclose(s.q_c, 0.0)


def test_source_free_rc_discharge():
    # no source sets the Newton tolerance scale: it falls back to 1
    graph, inc, binds = _setup("R1 1 0 1e3\nC1 1 0 1e-6\n")
    cfg = TransientConfig(scheme="trapezoidal", t_end=1e-3, steps=100,
                          init=InitialCondition(q_c0=np.array([1e-6])))
    trace = run_transient_traditional(graph, inc, binds, cfg)
    assert trace.states[-1].v_c[0] == pytest.approx(math.exp(-1.0), rel=1e-5)


def test_trapezoidal_rc_accuracy():
    graph, inc, binds = _setup(RC_NET)
    cfg = TransientConfig(scheme="trapezoidal", t_end=5e-3, steps=1000)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    assert _max_vc_error(trace, cfg) <= 1e-6


def test_scheme_orders_of_accuracy():
    graph, inc, binds = _setup(RC_NET)
    expected = {"backward-euler": 2.0, "trapezoidal": 4.0}
    for scheme, ideal in expected.items():
        errs = []
        for k in (500, 1000):
            cfg = TransientConfig(scheme=scheme, t_end=5e-3, steps=k)
            errs.append(_max_vc_error(run_transient_traditional(
                graph, inc, binds, cfg), cfg))
        ratio = errs[0] / errs[1]
        assert 0.8 * ideal <= ratio <= 1.2 * ideal


def test_kcl_residual_small():
    # the current-source circuit checks that the residual reads the sources
    for net in (RC_NET, MLCC_NET, RECT_NET, "I1 0 1 DC 1e-3\nR1 1 0 1e3\nC1 1 0 1e-6\n"):
        graph, inc, binds = _setup(net)
        cfg = TransientConfig(scheme="trapezoidal", t_end=1e-3, steps=50)
        trace = run_transient_traditional(graph, inc, binds, cfg)
        assert kcl_residual(inc, trace) <= 1e-10


def test_steady_state_stays_constant():
    graph, inc, binds = _setup(RC_NET)
    cfg = TransientConfig(scheme="backward-euler", t_end=5e-3, steps=50,
                          init=InitialCondition(q_c0=np.array([1e-6])))
    trace = run_transient_traditional(graph, inc, binds, cfg)
    for s in trace.states:
        assert s.v_c[0] == pytest.approx(1.0, abs=1e-12)
        assert s.i_g[0] == pytest.approx(0.0, abs=1e-12)


def test_newton_single_iteration_on_linear_circuit():
    graph, inc, binds = _setup(RC_NET)
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=20)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    assert np.all(trace.iterations[1:] == 1)


def test_newton_work_on_nonlinear_circuits():
    # warm-started damped Newton converges fast; nonlinear steps still need
    # strictly more work on average than the single linear iteration
    for net in (MLCC_NET, RECT_NET):
        graph, inc, binds = _setup(net)
        t_end = 1.0 if "mlcc" in net else 0.02
        cfg = TransientConfig(scheme="trapezoidal", t_end=t_end, steps=200)
        trace = run_transient_traditional(graph, inc, binds, cfg)
        mean = trace.iterations[1:].mean()
        assert 1.0 < mean < 30.0
        assert np.all(trace.converged)


def test_rectifier_blocking_regime():
    graph, inc, binds = _setup(RECT_NET)
    cfg = TransientConfig(scheme="trapezoidal", t_end=0.02, steps=400)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    ts = cfg.times()
    # negative source half-wave: diode pinned at -i_s, capacitor discharging
    blocking = [k for k, t in enumerate(ts)
                if math.sin(2 * math.pi * 100 * t) < -0.5]
    i_s = 2.52e-9
    for k in blocking:
        assert trace.states[k].i_g[0] == pytest.approx(-i_s, rel=1e-6)
    # decay is monotone within each contiguous blocking window (the capacitor
    # recharges between the two negative half-waves)
    for k_prev, k_next in zip(blocking, blocking[1:]):
        if k_next == k_prev + 1:
            assert trace.states[k_next].v_c[0] < trace.states[k_prev].v_c[0]
    assert all(trace.states[k].v_c[0] > 0 for k in blocking)


def test_rectifier_charges_toward_peak():
    graph, inc, binds = _setup(RECT_NET)
    cfg = TransientConfig(scheme="trapezoidal", t_end=0.02, steps=400)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    peak = max(s.v_c[0] for s in trace.states)
    assert 3.5 <= peak <= 5.0


@pytest.mark.parametrize("alpha", [1.0 / 1e-4, 2.0 / 1e-4], ids=["be", "tr"])
def test_split_jacobian_is_the_true_jacobian(alpha):
    # the linear stamp plus the nonlinear rank-1 stamps must be the derivative
    # of the residual, alpha scaling included.  The diode is held in forward
    # bias, where its conductance stands well above the difference's rounding.
    graph, inc, binds = _setup(MIXED_NET)
    solver = TraditionalSolver(graph, inc, binds)
    a_d = inc.a_g[:, [e.name for e in graph.groups["G"]].index("D1")]
    rng = np.random.default_rng(7)
    n = solver.nphi + solver.n_l + solver.n_v
    b = rng.uniform(-1e-3, 1e-3, n)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, n)
        v_d = a_d @ x[:solver.nphi]
        x[:solver.nphi] += a_d * (rng.uniform(0.45, 0.65) - v_d) / 2.0
        _, jac = solver.residual_jacobian(x, alpha, b)
        fd = np.empty((n, n))
        for j in range(n):
            dx = np.zeros(n)
            dx[j] = 1e-6 * max(1.0, abs(x[j]))
            f_hi, _ = solver.residual_jacobian(x + dx, alpha, b)
            f_lo, _ = solver.residual_jacobian(x - dx, alpha, b)
            fd[:, j] = (f_hi - f_lo) / (2.0 * dx[j])
        assert jac == pytest.approx(fd, rel=1e-6, abs=0.0)


def test_linear_circuit_factors_once_per_step_size(monkeypatch):
    # 100 trapezoidal steps: one LU for the h/100 bootstrap alpha and one for
    # the step alpha; the held circuit at t0 is a different, larger system
    stages = 5
    net = "V1 1 0 SIN 0 1 1000\n" + "".join(
        f"R{k} {k} {k + 1} 1e3\nC{k} {k + 1} 0 1e-8\n" for k in range(1, stages + 1))
    graph, inc, binds = _setup(net)
    shapes = []
    dgetrf = reference.lapack.dgetrf

    def counting_dgetrf(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return dgetrf(a, *args, **kwargs)

    monkeypatch.setattr(reference.lapack, "dgetrf", counting_dgetrf)
    cfg = TransientConfig(scheme="trapezoidal", t_end=1e-3, steps=100)
    run_transient_traditional(graph, inc, binds, cfg)
    n = graph.n - 1 + graph.count("L") + graph.count("V")
    assert shapes.count((n, n)) == 2
    assert len(shapes) == 3


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("net", [RC_NET, LADDER_NET], ids=["rc", "ladder-25"])
def test_linear_circuit_takes_one_solve_per_step(monkeypatch, net, scheme):
    # no residual evaluation and one dgetrs with the kept factors per step,
    # counting the held step at t0 and the trapezoidal bootstrap as steps
    graph, inc, binds = _setup(net)
    calls = {"dgetrs": 0, "residual_jacobian": 0}
    dgetrs = reference.lapack.dgetrs
    residual_jacobian = TraditionalSolver.residual_jacobian

    def counting_dgetrs(*args, **kwargs):
        calls["dgetrs"] += 1
        return dgetrs(*args, **kwargs)

    def counting_residual_jacobian(self, *args):
        calls["residual_jacobian"] += 1
        return residual_jacobian(self, *args)

    monkeypatch.setattr(reference.lapack, "dgetrs", counting_dgetrs)
    monkeypatch.setattr(TraditionalSolver, "residual_jacobian", counting_residual_jacobian)
    cfg = TransientConfig(scheme=scheme, t_end=1e-3, steps=50)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    assert calls == {"dgetrs": 1 + (scheme == "trapezoidal") + cfg.steps,
                     "residual_jacobian": 0}
    assert np.all(trace.iterations[1:] == 1)
    assert kcl_residual(inc, trace) <= 1e-10


@pytest.mark.parametrize("net", ["V1 1 0 DC 1e308\nR1 1 2 1e-3\nC1 2 0 1e-6\n",
                                 "V1 1 0 DC 1e308\nR1 1 0 1e-3\n"], ids=["rc", "r"])
def test_non_finite_linear_solution_raises_solver_error(net):
    graph, inc, binds = _setup(net)
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=5)
    with pytest.raises(SolverError, match="non-finite solution"):
        run_transient_traditional(graph, inc, binds, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_newton_residual_raises_solver_error():
    # a NaN residual never passes the tolerance test, so the loop must not
    # end as if it had converged
    graph, inc, binds = _setup("V1 1 0 DC 1e308\nR1 1 2 1e-3\n"
                               "D1 2 0 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n")
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=5)
    with pytest.raises(SolverError, match="Newton failed"):
        run_transient_traditional(graph, inc, binds, cfg)


def _kcl_residual_per_step(inc, trace):
    worst = 0.0
    for k in range(1, len(trace.states)):
        s, qdot = trace.states[k], trace.rates[k][0]
        _, i_src = sources(trace.graph, trace.times[k])
        r = inc.a_g @ s.i_g + inc.a_c @ qdot + inc.a_l @ s.i_l + inc.a_v @ s.i_v \
            - inc.a_i @ i_src
        scale = max(1e-30, np.abs(s.i_g).max(initial=0.0), np.abs(s.i_v).max(initial=0.0),
                    np.abs(qdot).max(initial=0.0))
        worst = max(worst, np.abs(r).max(initial=0.0) / scale)
    return worst


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
def test_kcl_residual_matches_the_per_step_loop(scheme):
    # reference traces of every element kind and a data-driven trace; the
    # rc-nonlinear trace has residuals far above rounding, and 40 steps are
    # one full block of steps and one partial block
    assert 40 % reference.KCL_BLOCK != 0 and 40 > reference.KCL_BLOCK
    traces = []
    for net in (RC_NET, MIXED_NET, SCENARIOS["rc-nonlinear"].netlist):
        graph, inc, binds = _setup(net)
        cfg = TransientConfig(scheme=scheme, t_end=1e-3, steps=40)
        traces.append((inc, run_transient_traditional(graph, inc, binds, cfg)))
    scenario = SCENARIOS["rectifier"]
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end / 10, steps=40)
    data = synthesize_datasets(scenario, graph, known,
                               run_transient_traditional(graph, inc, known, cfg), 1000)
    traces.append((inc, run_transient_dd(graph, inc, data, cfg,
                                         DDConfig(weight_rule=scenario.weight_rule))))
    for inc, trace in traces:
        assert kcl_residual(inc, trace) == pytest.approx(
            _kcl_residual_per_step(inc, trace), rel=0.0, abs=1e-14)


@pytest.mark.parametrize("load", ["R1 1 2 1e3\nC1 2 0 1e-6\n",
                                  "R1 1 2 2e4\nC1 2 0 MODEL mlcc(1e-5,2e-6,1.0)\n",
                                  RECT_NET.split("\n", 1)[1]],
                         ids=["linear", "mlcc", "diode"])
def test_parallel_voltage_sources_raise_solver_error(load):
    graph, inc, binds = _setup("V1 1 0 DC 1\nV2 1 0 DC 2\n" + load)
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=10)
    with pytest.raises(SolverError, match="singular MNA system"):
        run_transient_traditional(graph, inc, binds, cfg)


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("name", ["rc-nonlinear", "rectifier"])
def test_state_holds_the_model_values_at_its_voltages(name, scheme):
    # the nonlinear columns of each state come from the accepted Newton
    # iterate, so they must be the models' values at the state's own voltages;
    # at t0 the charges are the pinned q_c0, so only the G columns are checked
    scenario = SCENARIOS[name]
    graph, inc, binds = _setup(scenario.netlist)
    cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end, steps=scenario.steps)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    solver = TraditionalSolver(graph, inc, binds)
    g_nl = [k for k, m in enumerate(solver.g_models) if not isinstance(m, em.LinearModel)]
    c_nl = [k for k, m in enumerate(solver.c_models) if not isinstance(m, em.LinearModel)]
    assert g_nl or c_nl
    for step, s in enumerate(trace.states):
        for k in g_nl:
            assert s.i_g[k] == em.conductor_current(solver.g_models[k], s.v_g[k])
        for k in c_nl if step else ():
            assert s.q_c[k] == em.capacitor_charge(solver.c_models[k], s.v_c[k])


def _held(net):
    graph, _, binds = _setup(net)
    held = held_circuit(graph, np.linspace(0.5, 1.0, graph.count("C")),
                        np.linspace(-1e-3, 1e-3, graph.count("L")))
    return held, build_incidence(held), binds


@pytest.mark.parametrize("circuit", [
    _setup(RC_NET), _setup(LADDER_NET), _setup(SCENARIOS["rc-nonlinear"].netlist),
    _setup(SCENARIOS["rectifier"].netlist), _setup(MIXED_NET), _held(MIXED_NET)],
    ids=["rc", "ladder-25", "rc-nonlinear", "rectifier", "mixed", "held-mixed"])
def test_state_is_an_exact_lift_of_the_newton_vector(circuit):
    graph, inc, binds = circuit
    solver = TraditionalSolver(graph, inc, binds)
    rng = np.random.default_rng(3)
    g_nl = [k for k, m in enumerate(solver.g_models) if not isinstance(m, em.LinearModel)]
    c_nl = [k for k, m in enumerate(solver.c_models) if not isinstance(m, em.LinearModel)]
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, solver.nphi + solver.n_l + solver.n_v) \
            * 10.0 ** rng.integers(-6, 3)
        x[rng.random(x.size) < 0.3] = -0.0
        phi, i_l, i_v = np.split(x, [solver.nphi, solver.nphi + solver.n_l])
        v_g, v_c = inc.a_g.T @ phi, inc.a_c.T @ phi
        i_g = [em.conductor_current(m, v) for m, v in zip(solver.g_models, v_g)]
        q_c = [em.capacitor_charge(m, v) for m, v in zip(solver.c_models, v_c)]
        want = CircuitState(phi=phi, v_g=v_g, i_g=i_g, v_c=v_c, q_c=q_c,
                            psi_l=solver.l_values * i_l, i_l=i_l, i_v=i_v)
        values = np.array([i_g[k] for k in g_nl] + [q_c[k] for k in c_nl])
        got = solver.state_from_x(x, values)
        # bitwise, so each unknown's signed zero is kept as it is
        assert np.array_equal(got.x.view(np.int64), want.x.view(np.int64))
