"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with the measured quantities so the
verbose pytest run doubles as a report.
"""

import math
import time

import numpy as np
import pytest

from ddmna.dataset import (
    ElementBinding,
    MeasurementSet,
    NearestNeighborIndex,
    bindings_from_graph,
    nearest_measurement,
)
from ddmna.ddsolver import DDConfig, DDSolver, brute_force_timestep, run_transient_dd
from ddmna.metrics import ConvergencePoint, convergence_slope
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import analytic_rc_voltage, run_transient_traditional
from ddmna.scenarios import SCENARIOS, build_scenario, run_cell, synthesize_datasets
from ddmna.state import TransientConfig

NO_L = np.zeros(0)
RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"


def _rc_max_error(scheme, steps):
    graph = parse_netlist(RC_NET)
    inc = build_incidence(graph)
    binds = bindings_from_graph(graph)
    cfg = TransientConfig(scheme=scheme, t_end=5e-3, steps=steps)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    return max(abs(s.v_c[0] - analytic_rc_voltage(1e3, 1e-6, 1.0, t))
               for s, t in zip(trace.states, cfg.times()))


def test_criterion_01_traditional_solver_accuracy():
    t0 = time.monotonic()
    err_tr = _rc_max_error("trapezoidal", 1000)
    err_be_1k = _rc_max_error("backward-euler", 1000)
    err_be_2k = _rc_max_error("backward-euler", 2000)
    ratio = err_be_1k / err_be_2k
    elapsed = time.monotonic() - t0
    print(f"criterion 1: tr_max_err={err_tr:.3g} be_halving_ratio={ratio:.3f} "
          f"({elapsed:.2f}s)")
    assert err_tr <= 1e-6
    assert 1.8 <= ratio <= 2.2
    assert elapsed < 1.0


def test_criterion_02_all_known_matches_traditional():
    # Every built-in netlist with all elements known, nonlinear models included.
    t0 = time.monotonic()
    max_iters = DDConfig().max_iters
    worst, capped = 0.0, 0
    for scenario in SCENARIOS.values():
        graph, inc, known = build_scenario(scenario)
        for scheme in ("backward-euler", "trapezoidal"):
            cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end, steps=200)
            trad = run_transient_traditional(graph, inc, known, cfg)
            dd = run_transient_dd(graph, inc, known, cfg, DDConfig())
            capped += int((dd.iterations >= max_iters).sum())
            # known elements carry no distance: every mismatch is 0, and a
            # step stops on its repeated selection
            steps = dd.step_details[1:]
            assert {s.stop_reason for s in steps} == {"selection-fixed"}
            assert all(m == 0.0 for s in steps for m in s.em_history)
            for field in ("phi", "v_g", "i_g", "v_c", "q_c", "i_v"):
                ref = np.array([getattr(s, field) for s in trad.states])
                got = np.array([getattr(s, field) for s in dd.states])
                rel = np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    print(f"criterion 2: worst_relative_gap={worst:.3g} capped_steps={capped} "
          f"({elapsed:.2f}s)")
    assert worst <= 1e-9
    assert capped == 0
    assert elapsed < 5.0


def test_criterion_03_linear_convergence_rate():
    t0 = time.monotonic()
    ns = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5]
    rms = [run_cell("rc-linear", "trapezoidal", 1000, n).rms for n in ns]
    slope = convergence_slope([ConvergencePoint(n, r) for n, r in zip(ns, rms)])
    elapsed = time.monotonic() - t0
    print(f"criterion 3: slope={slope:.3f} rms={[f'{r:.2e}' for r in rms]} "
          f"({elapsed:.1f}s)")
    assert -1.3 <= slope <= -0.7
    assert all(b <= a for a, b in zip(rms, rms[1:]))
    assert elapsed < 300.0


def test_criterion_04_stagnation_at_time_discretization_floor():
    t0 = time.monotonic()
    res = run_cell("rc-linear", "backward-euler", 100, 10 ** 6)
    ratio = res.rms / res.rms_traditional
    elapsed = time.monotonic() - t0
    print(f"criterion 4: rms_dd/rms_traditional={ratio:.3f} ({elapsed:.1f}s)")
    assert ratio <= 2.0
    assert elapsed < 300.0


def test_criterion_05_nonlinear_convergence_rate():
    t0 = time.monotonic()
    ns = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5]
    rms = [run_cell("rc-nonlinear", "trapezoidal", 1000, n).rms for n in ns]
    slope = convergence_slope([ConvergencePoint(n, r) for n, r in zip(ns, rms)])
    elapsed = time.monotonic() - t0
    print(f"criterion 5: slope={slope:.3f} rms={[f'{r:.2e}' for r in rms]} "
          f"({elapsed:.1f}s)")
    assert -1.4 <= slope <= -0.6
    assert elapsed < 600.0


def test_criterion_06_rectifier_output_error_trend():
    t0 = time.monotonic()
    ns = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]
    rms = [run_cell("rectifier", "trapezoidal", 400, n).rms for n in ns]
    elapsed = time.monotonic() - t0
    print(f"criterion 6: rms={[f'{r:.2e}' for r in rms]} ({elapsed:.1f}s)")
    assert all(b < a for a, b in zip(rms, rms[1:]))
    assert rms[-1] <= 0.05
    assert elapsed < 900.0


def test_criterion_07_monotone_descent_and_feasibility():
    scenario = SCENARIOS["rc-linear"]
    graph, inc, known = build_scenario(scenario)
    max_rise, max_feas, steps_seen = 0.0, 0.0, 0
    for scheme in ("backward-euler", "trapezoidal"):
        cfg = TransientConfig(scheme=scheme, t_end=5e-3, steps=100)
        trad = run_transient_traditional(graph, inc, known, cfg)
        for binds in (known, synthesize_datasets(scenario, graph, known, trad, 500)):
            dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
            for step in dd.step_details[1:]:
                hist = step.em_history
                if len(hist) > 1:
                    max_rise = max(max_rise, max(b - a for a, b in zip(hist, hist[1:])))
                max_feas = max(max_feas, step.feasibility_residual)
                steps_seen += 1
    print(f"criterion 7: max_mismatch_increase={max_rise:.3g} "
          f"max_feasibility_residual={max_feas:.3g} over {steps_seen} steps")
    assert max_rise <= 1e-12
    assert max_feas <= 1e-10


def test_criterion_08_oracle_equivalence_randomized():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    nets = ("V1 1 0 DC {v}\nR1 1 0 1\n",
            "V1 1 0 DC {v}\nR1 1 2 1\nR2 2 0 1\n")
    failures = 0
    for trial in range(20):
        net = nets[trial % 2]
        v = float(rng.uniform(0.2, 3.0))
        graph = parse_netlist(net.format(v=v))
        inc = build_incidence(graph)
        binds = []
        for e in graph.groups["G"]:
            n = int(rng.integers(3, 21))
            pairs = rng.uniform(-2.0, 2.0, size=(n, 2))
            binds.append(ElementBinding(e.name, "G", "data",
                                        data=MeasurementSet("G", pairs)))
        solver = DDSolver(graph, inc, binds, DDConfig())
        v_src = np.array([v])
        zo_b, combo, mm = brute_force_timestep(solver, 1.0, NO_L, NO_L,
                                               v_src, NO_L)
        # converged solver from the default seed must not beat the oracle
        _, _, run = solver.solve_timestep(solver.seed_state(NO_L, NO_L),
                                          1.0, NO_L, NO_L, v_src, NO_L)
        ok = mm <= run.final_mismatch + 1e-12
        # started from the oracle tuple the solver must stay there
        zx_fp, (sel, _) = solver.project_to_data(zo_b)
        _, _, fp = solver.solve_timestep(zx_fp, 1.0, NO_L, NO_L,
                                         v_src, NO_L)
        ok = ok and sel == combo and fp.final_mismatch <= mm + 1e-12
        failures += 0 if ok else 1
    elapsed = time.monotonic() - t0
    print(f"criterion 8: failures={failures}/20 ({elapsed:.2f}s)")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_09_iteration_counts_grow_with_data():
    medians = [run_cell("rc-linear", "backward-euler", 100, n).median_iters
               for n in (10 ** 2, 10 ** 4, 10 ** 6)]
    print(f"criterion 9: median_iterations={medians}")
    assert all(1.0 <= m <= 200.0 for m in medians)
    assert all(b >= a for a, b in zip(medians, medians[1:]))


def test_criterion_10_nearest_neighbor_exactness():
    rng = np.random.default_rng(7)
    mset = MeasurementSet("G", rng.uniform(-5.0, 5.0, size=(10 ** 4, 2)))
    w = 0.37
    index = NearestNeighborIndex(mset, w)
    mismatches = 0
    for _ in range(1000):
        q = rng.uniform(-6.0, 6.0, size=2)
        _, i_tree = index.query(q)
        _, i_brute = nearest_measurement(mset, q, w)
        mismatches += int(i_tree != i_brute)
    print(f"criterion 10: mismatches={mismatches}/1000")
    assert mismatches == 0
