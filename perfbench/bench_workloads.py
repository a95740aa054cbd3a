"""Workload runners and their output checks.

A cell goes through the same public calls as ``ddmna.scenarios.run_cell``:
reference run, ``synthesize_datasets``, ``run_transient_dd`` and
``rms_error``.  The reference workload runs only the model-based solver.
Every call into ddmna is looked up on its module at call time, so the span
wrappers of a traced run see it.
"""

from __future__ import annotations

import dataclasses
import math
import time
import traceback

import numpy as np

from ddmna import dataset, ddsolver, metrics, netlist, reference, scenarios
from ddmna.ddsolver import DDConfig
from ddmna.state import TransientConfig

import bench_inputs as inputs

FEASIBILITY_MAX = 1e-10   # every data-driven step's constraint residual
RMS_MAX = 0.05            # criterion 06's ceiling for a cell
KCL_MAX = 1e-10           # reference runs' discrete KCL residual
# Known defect, reported and not gated: the model-based solver leaves a
# relative KCL residual of ~4e-4 (nominal) to ~1e-2 (perturbed) on the MLCC
# circuit over its full 1 s window, although tests/test_reference.py holds it
# to 1e-10 over the first millisecond.  Gate it once the solver is fixed.
KCL_NOT_GATED = ("rc_nonlinear",)
RC_TR_MAX_ERR = 1e-6      # criterion 01: TR K=1000 max error against the analytic trace,
RC_TAU = 1e-3             # for its RC time constant; TR's error scales as (h / tau)^2
BE_HALVING = (1.8, 2.2)   # criterion 01: BE error ratio for K=1000 vs K=2000


@dataclasses.dataclass
class Outcome:
    """What one case did, as the benchmark counts it."""

    seconds: float = math.nan
    scaled: float = math.nan  # seconds at the reference host speed (timed runs only)
    steps: int = 0          # time steps attempted
    capped: int = 0         # steps that ended at max_iters, or all steps of a raising run
    iters: int = 0          # data-driven inner iterations
    em_rises: int = 0       # iterations whose energy mismatch rose
    rms: float = math.nan
    kcl_ungated: float = 0.0  # worst KCL residual of the KCL_NOT_GATED runs
    errors: list = dataclasses.field(default_factory=list)


# -- cells ---------------------------------------------------------------
def _cell_config(case: inputs.CellCase) -> TransientConfig:
    sc = case.scenario
    return TransientConfig(scheme=sc.scheme, t0=0.0, t_end=sc.t_end, steps=sc.steps)


def _no_mark() -> None:
    pass


def run_cell(case: inputs.CellCase, mark=_no_mark):
    """One sweep cell; returns (data-driven trace, rms at the probe element)."""
    sc = case.scenario
    graph, inc, known = scenarios.build_scenario(sc)
    config = _cell_config(case)
    trad = reference.run_transient_traditional(graph, inc, known, config)
    bindings = scenarios.synthesize_datasets(sc, graph, known, trad, case.n_total)
    dd = ddsolver.run_transient_dd(graph, inc, bindings, config,
                                   DDConfig(weight_rule=sc.weight_rule))
    group, index = scenarios.element_location(graph, sc.metric_element)
    true_model = next(b.model for b in known if b.name == sc.metric_element)
    return dd, metrics.rms_error(dd, trad, true_model, group, index)


def check_cell(case: inputs.CellCase, raw, out: Outcome) -> None:
    out.steps = case.scenario.steps
    if raw is None:
        out.capped = out.steps
        return
    dd, rms = raw
    steps = dd.step_details[1:]
    out.capped = sum(not s.converged for s in steps)
    out.iters = sum(s.iterations for s in steps)
    out.em_rises = sum(int(np.count_nonzero(np.diff(s.em_history) > 0.0)) for s in steps)
    out.rms = float(rms)
    worst = max(s.feasibility_residual for s in steps)
    if not worst <= FEASIBILITY_MAX:
        out.errors.append(f"feasibility residual {worst:.3g} > {FEASIBILITY_MAX:g}")
    if not (math.isfinite(out.rms) and out.rms <= RMS_MAX):
        out.errors.append(f"rms {out.rms:.3g} not finite or > {RMS_MAX:g}")


def cell_setup(case: inputs.CellCase):
    """Returns a callable timing one parse + incidence + DDSolver construction."""
    sc = case.scenario
    graph, inc, known = scenarios.build_scenario(sc)
    trad = reference.run_transient_traditional(graph, inc, known, _cell_config(case))
    bindings = scenarios.synthesize_datasets(sc, graph, known, trad, case.n_total)
    config = DDConfig(weight_rule=sc.weight_rule)

    def once() -> float:
        t0 = time.perf_counter()
        g = netlist.parse_netlist(sc.netlist)
        ddsolver.DDSolver(g, netlist.build_incidence(g), bindings, config)
        return time.perf_counter() - t0

    return once


# -- reference -----------------------------------------------------------
REFERENCE_RUNS = (
    # (circuit, scheme, steps, t_end)
    ("rc", "trapezoidal", 1000, 5e-3),
    ("rc", "backward-euler", 1000, 5e-3),
    ("rc", "backward-euler", 2000, 5e-3),
    ("ladder", "trapezoidal", 4000, 2e-3),
    ("rc_nonlinear", "trapezoidal", 1000, 1.0),
    ("rectifier", "trapezoidal", 2000, 0.02),
)


def _build(text: str):
    graph = netlist.parse_netlist(text)
    return graph, netlist.build_incidence(graph), dataset.bindings_from_graph(graph)


def run_reference(case: inputs.ReferenceCase, mark=_no_mark):
    """The reference batch; returns [(circuit, graph, inc, config, trace)].

    `mark` is called between runs, so each is timed and scaled on its own.
    """
    built = {}
    out = []
    for circuit, scheme, steps, t_end in REFERENCE_RUNS:
        if out:
            mark()
        if circuit not in built:
            built[circuit] = _build(getattr(case, circuit))
        graph, inc, known = built[circuit]
        config = TransientConfig(scheme=scheme, t_end=t_end, steps=steps)
        out.append((circuit, graph, inc, config,
                    reference.run_transient_traditional(graph, inc, known, config)))
    return out


def _rc_gap(graph, config, trace):
    """Capacitor voltage minus the analytic series-RC voltage, per time point."""
    r = 1.0 / graph.groups["G"][0].payload.value
    c = graph.groups["C"][0].payload.value
    v = graph.groups["V"][0].waveform.dc_value
    exact = reference.analytic_rc_voltage(r, c, v, config.times())
    got = np.array([s.v_c[0] for s in trace.states])
    return got - exact, exact, r * c


def check_reference(case: inputs.ReferenceCase, raw, out: Outcome) -> None:
    out.steps = sum(run[2] for run in REFERENCE_RUNS)
    if raw is None:
        out.capped = out.steps
        return
    rc_err, tau = [], RC_TAU
    for circuit, graph, inc, config, trace in raw:
        kcl = reference.kcl_residual(inc, trace)
        if circuit in KCL_NOT_GATED:
            out.kcl_ungated = max(out.kcl_ungated, kcl)
        elif not kcl <= KCL_MAX:
            out.errors.append(f"{circuit} {config.scheme} K={config.steps}: "
                              f"KCL residual {kcl:.3g} > {KCL_MAX:g}")
        if circuit == "rc":
            gap, exact, tau = _rc_gap(graph, config, trace)
            rc_err.append(float(np.abs(gap).max()))
            if config.scheme == "trapezoidal":
                # relative RMS gap, scaled to the nominal time constant so the
                # seed's draw of R and C does not move it
                out.rms = float(np.sqrt(np.mean(gap ** 2) / np.mean(exact ** 2))
                                * (tau / RC_TAU) ** 2)
    err_tr, err_be1, err_be2 = rc_err
    tr_max = RC_TR_MAX_ERR * (RC_TAU / tau) ** 2
    if not err_tr <= tr_max:
        out.errors.append(f"RC TR max error {err_tr:.3g} > {tr_max:.3g}")
    ratio = err_be1 / err_be2
    if not BE_HALVING[0] <= ratio <= BE_HALVING[1]:
        out.errors.append(f"RC BE halving ratio {ratio:.3f} outside {BE_HALVING}")


def reference_setup(case: inputs.ReferenceCase):
    """Returns a callable timing parse + incidence + TraditionalSolver per circuit."""
    texts = [getattr(case, name) for name in ("rc", "ladder", "rc_nonlinear", "rectifier")]
    bindings = [_build(text)[2] for text in texts]

    def once() -> float:
        t0 = time.perf_counter()
        for text, known in zip(texts, bindings):
            g = netlist.parse_netlist(text)
            reference.TraditionalSolver(g, netlist.build_incidence(g), known)
        return time.perf_counter() - t0

    return once


# -- registry ------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    make_case: object      # (seed, case) -> case inputs
    run: object            # (case, mark) -> raw result (timed)
    check: object          # (case, raw or None, Outcome) -> None
    setup: object          # case -> callable returning one set-up time
    min_cases: int         # cases every timed run completes; rms and counts use these
    traced_cases: int      # cases of a traced run
    scaled: bool           # times scaled to the reference host speed (bench_speed)


WORKLOADS = {
    "rectifier-n1e5": Workload("rectifier-n1e5", inputs.rectifier_case, run_cell, check_cell,
                               cell_setup, min_cases=16, traced_cases=4, scaled=False),
    "ladder-25": Workload("ladder-25", inputs.ladder_case, run_cell, check_cell,
                          cell_setup, min_cases=13, traced_cases=4, scaled=True),
    "reference": Workload("reference", inputs.reference_case, run_reference, check_reference,
                          reference_setup, min_cases=3, traced_cases=1, scaled=True),
}


def run_case(workload: Workload, case, meter=None) -> Outcome:
    """Time one case, then check it.  A raising case is a failed case, not a crash.

    With a started bench_speed.Meter, the case's stretches are timed by it
    and `scaled` is set too.
    """
    out = Outcome()
    if meter is not None:
        seconds, scaled = meter.seconds, meter.scaled
        meter.resume()
    t0 = time.perf_counter()
    try:
        raw = workload.run(case, meter.mark if meter is not None else _no_mark)
    except Exception as exc:  # counted as a failure and reported, never dropped
        raw = None
        out.errors.append(f"raised {type(exc).__name__}: {exc}")
        traceback.print_exc()
    out.seconds = time.perf_counter() - t0
    if meter is not None:
        meter.mark()
        out.seconds = meter.seconds - seconds
        out.scaled = meter.scaled - scaled
    workload.check(case, raw, out)
    return out
