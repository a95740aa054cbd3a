import copy

import numpy as np
import pytest

from ddmna.elements import LinearModel
from ddmna.metrics import (
    ConvergencePoint,
    convergence_slope,
    energy_mismatch_error,
    rms_error,
    true_weights,
)
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.dataset import bindings_from_graph
from ddmna.reference import run_transient_traditional
from ddmna.scenarios import run_cell
from ddmna.state import TransientConfig

RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"


def _rc_trace(steps=50):
    graph = parse_netlist(RC_NET)
    inc = build_incidence(graph)
    binds = bindings_from_graph(graph)
    cfg = TransientConfig(scheme="trapezoidal", t_end=5e-3, steps=steps)
    return graph, run_transient_traditional(graph, inc, binds, cfg)


def _perturbed(trace, dv=0.0, dq=0.0):
    other = copy.deepcopy(trace)
    for s in other.states:
        s.v_c[:] += dv
        s.q_c[:] += dq
    return other


def test_error_series_zero_for_identical_traces():
    graph, trace = _rc_trace()
    series = energy_mismatch_error(trace, trace, LinearModel("C", 1e-6),
                                   "C", 0)
    assert np.all(np.asarray(series.values) == 0.0)
    assert len(series.values) == len(trace.times)


def test_error_series_hand_value():
    # C = 1 uF, dv = 1 mV, dq = 0 at every step -> 0.5e-6 * 1e-6 per step
    graph, trace = _rc_trace(steps=10)
    other = _perturbed(trace, dv=1e-3)
    series = energy_mismatch_error(other, trace, LinearModel("C", 1e-6),
                                   "C", 0)
    assert np.allclose(series.values, 0.5 * 1e-6 * 1e-6)


def test_error_series_mismatched_grids_rejected():
    graph, t1 = _rc_trace(steps=10)
    _, t2 = _rc_trace(steps=20)
    with pytest.raises(ValueError):
        energy_mismatch_error(t1, t2, LinearModel("C", 1e-6), "C", 0)


def test_rms_zero_for_identical_traces():
    graph, trace = _rc_trace()
    assert rms_error(trace, trace, LinearModel("C", 1e-6), "C", 0) == 0.0


def test_rms_relative_offset():
    # scaling one coordinate by (1 + delta) yields rms close to |delta| when
    # the perturbed coordinate dominates the reference norm
    graph, trace = _rc_trace()
    delta = 1e-3
    other = copy.deepcopy(trace)
    for s in other.states:
        s.v_c[:] *= (1.0 + delta)
        s.q_c[:] *= (1.0 + delta)
    got = rms_error(other, trace, LinearModel("C", 1e-6), "C", 0)
    assert got == pytest.approx(delta, rel=1e-9)


def test_rms_homogeneity():
    graph, trace = _rc_trace()
    small = _perturbed(trace, dv=1e-4)
    # doubling both coordinate gaps doubles rms (sqrt of 4x squared error)
    big = _perturbed(trace, dv=2e-4)
    r1 = rms_error(small, trace, LinearModel("C", 1e-6), "C", 0)
    r2 = rms_error(big, trace, LinearModel("C", 1e-6), "C", 0)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-9)


def test_rms_rejects_zero_reference():
    graph = parse_netlist("V1 1 0 DC 0\nR1 1 2 1e3\nC1 2 0 1e-6\n")
    inc = build_incidence(graph)
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=5)
    trace = run_transient_traditional(graph, inc, bindings_from_graph(graph), cfg)
    with pytest.raises(ValueError):
        rms_error(trace, trace, LinearModel("C", 1e-6), "C", 0)


def test_stagnation_at_time_discretization_floor():
    res = run_cell("rc-linear", "backward-euler", 100, 10 ** 6)
    assert res.rms <= 2.0 * res.rms_traditional


def test_slope_exact_power_law():
    pts = [ConvergencePoint(n, 10.0 / n) for n in (10, 100, 1000, 10000)]
    assert convergence_slope(pts) == pytest.approx(-1.0)


def test_slope_constant_rms():
    pts = [ConvergencePoint(n, 0.37) for n in (10, 100, 1000)]
    assert convergence_slope(pts) == pytest.approx(0.0, abs=1e-12)


def test_slope_scale_invariance():
    pts = [ConvergencePoint(n, 5.0 * n ** -0.8) for n in (10, 100, 1000)]
    scaled = [ConvergencePoint(p.n, 1e3 * p.rms) for p in pts]
    assert convergence_slope(scaled) == pytest.approx(convergence_slope(pts))


def test_slope_needs_three_points():
    with pytest.raises(ValueError):
        convergence_slope([ConvergencePoint(10, 1.0), ConvergencePoint(100, 0.1)])


def test_true_weights_linear_and_tangent():
    pairs = np.array([[0.0, 0.0], [1.0, 1e-6]])
    w = true_weights(LinearModel("C", 1e-6), pairs)
    assert np.allclose(w, 1e-6)


def test_sparse_data_error_dominates_dense_pointwise():
    coarse = run_cell("rc-linear", "trapezoidal", 200, 100)
    fine = run_cell("rc-linear", "trapezoidal", 200, 10 ** 5)
    s_coarse = energy_mismatch_error(coarse.dd_trace, coarse.ref_trace,
                                     coarse.true_model, coarse.group,
                                     coarse.index)
    s_fine = energy_mismatch_error(fine.dd_trace, fine.ref_trace,
                                   fine.true_model, fine.group, fine.index)
    frac = np.mean(np.asarray(s_coarse.values) >= np.asarray(s_fine.values))
    assert frac >= 0.9
