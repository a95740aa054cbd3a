"""Trace helpers: self time, the tail percentile, and wrapper install/restore."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_trace  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    #        0: root   [0, 10]
    #        1: child  [1, 4]   of 0
    #        2: child  [3, 6]   of 0 (overlaps 1: covered [1, 6] counts 5 once)
    #        3: grand  [1, 2]   of 1
    #        4: child  [9, 12]  of 0 (clipped to [9, 10])
    #        5: other root [20, 21]
    start = [0.0, 1.0, 3.0, 1.0, 9.0, 20.0]
    end = [10.0, 4.0, 6.0, 2.0, 12.0, 21.0]
    parent = [-1, 0, 0, 1, 0, -1]
    got = bench_trace.self_times(start, end, parent)
    assert got.tolist() == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3, 1])


def test_self_time_of_recorded_spans():
    clock = iter(range(100))
    tracer = bench_trace.Tracer()
    bench_trace.time.perf_counter, real = (lambda: float(next(clock))), bench_trace.time.perf_counter
    try:
        inner = tracer.timed("inner", lambda: None)
        outer = tracer.timed("outer", lambda: inner() or inner())
        outer()
    finally:
        bench_trace.time.perf_counter = real
    names, idx, start, end, parent = tracer.span_arrays()
    assert [names[i] for i in idx] == ["outer", "inner", "inner"]
    assert parent.tolist() == [-1, 0, 0]
    assert bench_trace.self_times(start, end, parent).tolist() == [5 - 2, 1, 1]


@pytest.mark.parametrize("n, pct", [(1000, 99.0), (999, 95.0), (100, 90.0), (40, 75.0),
                                    (20, 50.0), (19, 50.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    x = np.arange(n, dtype=float)
    p, value = bench_trace.tail_percentile(x)
    assert p == pct
    assert value == np.percentile(x, pct)
    if n >= 20:
        assert n * (1 - p / 100) >= 10 - 1e-9


def test_tail_percentile_of_nothing_is_zero():
    assert bench_trace.tail_percentile([]) == (0.0, 0.0)


def _patched_names():
    from ddmna import dataset, ddsolver, elements, netlist, scenarios, state
    return (dataset.NearestNeighborIndex.__dict__["query"],
            ddsolver.DDSolver.__dict__["solve_timestep"], ddsolver.scipy,
            ddsolver.local_tangent_weight, elements.composite_diode_current,
            netlist.parse_netlist, scenarios.parse_netlist,
            state.CircuitState.__dict__["pair"])


def test_install_wraps_where_callers_look_up_and_restores():
    from ddmna import elements
    from ddmna.elements import ShockleyDiodeModel
    before = _patched_names()
    tracer = bench_trace.Tracer()
    try:
        bench_trace.install(tracer)
        assert all(a is not b for a, b in zip(before, _patched_names()))
        elements.conductor_conductance(ShockleyDiodeModel(1e-9, 1.5, 0.025, 0.1), 0.5)
    finally:
        tracer.restore()
    assert all(a is b for a, b in zip(before, _patched_names()))
    names, idx, _, _, parent = tracer.span_arrays()
    # conductance calls current through the elements globals: a nested span
    assert [names[i] for i in idx] == ["elements.diode", "elements.diode"]
    assert parent.tolist() == [-1, 0]
