import math

import numpy as np
import pytest

from ddmna.dataset import bindings_from_graph
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import (
    analytic_rc_voltage,
    kcl_residual,
    run_transient_traditional,
)
from ddmna.state import InitialCondition, TransientConfig

RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"
MLCC_NET = "V1 1 0 DC 10\nR1 1 2 2e4\nC1 2 0 MODEL mlcc(1e-5,2e-6,1.0)\n"
RECT_NET = ("V1 1 0 SIN 0 5 100\n"
            "D1 1 2 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n"
            "C1 2 0 1e-4\n"
            "R1 2 0 1e3\n")


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
    for net in (RC_NET, MLCC_NET, RECT_NET):
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
