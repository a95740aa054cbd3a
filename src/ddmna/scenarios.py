"""Built-in experiment scenarios and the sweep driver.

Three circuits are provided: a linear RC circuit, an RC circuit with a
voltage-dependent (MLCC-type) capacitor, and a half-wave rectifier with a
Shockley diode whose series parasitic resistance is folded into the diode
dataset.  Each sweep cell runs the traditional solver, synthesizes
measurement data over its operating envelope, runs the data-driven solver
and reports RMS errors at the scenario's probe element.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import elements as em
from .dataset import (
    ElementBinding,
    SamplingPlan,
    generate_measurements,
    operating_envelope,
    bindings_from_graph,
)
from .ddsolver import DDConfig, run_transient_dd
from .metrics import ConvergencePoint, convergence_slope, \
    energy_mismatch_error, rms_error
from .netlist import build_incidence, parse_netlist
from .reference import analytic_rc_voltage, run_transient_traditional
from .state import CircuitState, TransientConfig, TransientTrace


@dataclass(frozen=True)
class Scenario:
    name: str
    netlist: str
    dd_names: tuple[str, ...]
    scheme: str
    steps: int
    t_end: float
    metric_element: str
    weight_rule: str = "constant"
    envelope_margin: float = 1.2
    analytic_reference: bool = False


SCENARIOS: dict[str, Scenario] = {
    "rc-linear": Scenario(
        name="rc-linear",
        netlist="V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n",
        dd_names=("R1", "C1"),
        scheme="trapezoidal",
        steps=1000,
        t_end=5e-3,
        metric_element="C1",
        analytic_reference=True,
    ),
    "rc-nonlinear": Scenario(
        name="rc-nonlinear",
        netlist="V1 1 0 DC 10\nR1 1 2 2e4\nC1 2 0 MODEL mlcc(1e-5,2e-6,1.0)\n",
        dd_names=("C1",),
        scheme="trapezoidal",
        steps=1000,
        t_end=1.0,
        metric_element="C1",
    ),
    "rectifier": Scenario(
        name="rectifier",
        netlist=("V1 1 0 SIN 0 5 100\n"
                 "D1 1 2 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n"
                 "C1 2 0 1e-4\n"
                 "R1 2 0 1e3\n"),
        dd_names=("D1",),
        scheme="trapezoidal",
        steps=400,
        t_end=0.02,  # two source periods
        metric_element="C1",
        weight_rule="local-tangent",
    ),
}


@dataclass
class ExperimentSpec:
    scenario: str
    n_values: list[int]
    schemes: list[str] = field(default_factory=list)
    steps_values: list[int] = field(default_factory=list)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if any(n < 1 for n in self.n_values):
            raise ValueError("N values must be >= 1")
        base = SCENARIOS[self.scenario]
        if not self.schemes:
            self.schemes = [base.scheme]
        if not self.steps_values:
            self.steps_values = [base.steps]


def build_scenario(scenario: Scenario):
    graph = parse_netlist(scenario.netlist)
    inc = build_incidence(graph)
    known = bindings_from_graph(graph)
    return graph, inc, known


def element_location(graph, name: str) -> tuple[str, int]:
    for group in "GCL":
        for j, e in enumerate(graph.groups[group]):
            if e.name == name:
                return group, j
    raise KeyError(name)


def analytic_rc_trace(graph, times: np.ndarray, r: float, c: float, v: float) -> TransientTrace:
    """Exact series-RC trace on the given grid (nodes: source node, capacitor node)."""
    states = []
    for t in times:
        v_c = float(analytic_rc_voltage(r, c, v, t))
        i = (v - v_c) / r
        s = CircuitState.zeros(graph)
        s.phi[:] = [v, v_c]
        s.v_g[:] = v - v_c
        s.i_g[:] = i
        s.v_c[:] = v_c
        s.q_c[:] = c * v_c
        s.i_v[:] = -i
        states.append(s)
    return TransientTrace(graph=graph, times=times, states=states,
                          iterations=np.zeros(len(times), int),
                          converged=np.ones(len(times), bool))


def synthesize_datasets(scenario: Scenario, graph, known_bindings,
                        envelope_trace: TransientTrace, n_total: int
                        ) -> list[ElementBinding]:
    """Replace the scenario's data-driven elements by synthetic measurement sets.

    The per-element count splits n_total evenly; grids cover the envelope of
    the reference run (margin per scenario).  Diode datasets are gridded
    log-symmetrically in current to resolve the exponential forward branch.
    """
    env = operating_envelope(envelope_trace, graph, margin=scenario.envelope_margin)
    count = max(1, n_total // len(scenario.dd_names))
    by_name = {b.name: b for b in known_bindings}
    out = []
    for b in known_bindings:
        if b.name not in scenario.dd_names:
            out.append(b)
            continue
        model = by_name[b.name].model
        lo, hi = env[b.name]
        if isinstance(model, em.ShockleyDiodeModel):
            lo = max(lo, -model.i_s * (1.0 - 1e-12))
            plan = SamplingPlan(lo, hi, count, spacing="log-symmetric", drive="i")
        elif isinstance(model, em.LinearModel) and model.kind == "L":
            plan = SamplingPlan(lo, hi, count, drive="i")
        else:
            plan = SamplingPlan(lo, hi, count, drive="v")
        out.append(ElementBinding(b.name, b.group, "data",
                                  data=generate_measurements(model, plan)))
    return out


@dataclass
class CellResult:
    scenario: str
    scheme: str
    steps: int
    n: int
    rms: float          # data-driven vs reference at the probe element
    rms_traditional: float  # traditional vs reference at the probe element
    median_iters: float
    dd_trace: TransientTrace
    trad_trace: TransientTrace
    ref_trace: TransientTrace
    true_model: object
    group: str
    index: int


def run_cell(scenario_name: str, scheme: str, steps: int, n: int,
             dd_config: DDConfig | None = None,
             t_end: float | None = None) -> CellResult:
    """Run one (scheme, K, N) sweep cell: traditional + data-driven + metrics."""
    scenario = SCENARIOS[scenario_name]
    graph, inc, known = build_scenario(scenario)
    config = TransientConfig(scheme=scheme, t0=0.0,
                             t_end=t_end if t_end is not None else scenario.t_end,
                             steps=steps)
    trad = run_transient_traditional(graph, inc, known, config)

    if scenario.analytic_reference:
        r_decl = next(e for e in graph.groups["G"] if e.name == "R1")
        c_decl = next(e for e in graph.groups["C"] if e.name == "C1")
        v_decl = graph.groups["V"][0]
        ref = analytic_rc_trace(graph, config.times(),
                                r=1.0 / r_decl.payload.value,
                                c=c_decl.payload.value,
                                v=v_decl.waveform.dc_value)
    else:
        ref = trad

    bindings = synthesize_datasets(scenario, graph, known, trad, n)
    if dd_config is None:
        dd_config = DDConfig(weight_rule=scenario.weight_rule)
    dd = run_transient_dd(graph, inc, bindings, config, dd_config)

    group, index = element_location(graph, scenario.metric_element)
    true_model = next(b for b in known if b.name == scenario.metric_element).model
    return CellResult(
        scenario=scenario_name, scheme=scheme, steps=steps, n=n,
        rms=rms_error(dd, ref, true_model, group, index),
        rms_traditional=rms_error(trad, ref, true_model, group, index)
        if ref is not trad else 0.0,
        median_iters=float(np.median(dd.iterations[1:])),
        dd_trace=dd, trad_trace=trad, ref_trace=ref,
        true_model=true_model, group=group, index=index,
    )


def _run_cell_task(args):
    scenario_name, scheme, steps, n, weight_rule = args
    res = run_cell(scenario_name, scheme, steps, n,
                   dd_config=DDConfig(weight_rule=weight_rule))
    return res


def run_experiment(spec: ExperimentSpec, out_dir: str,
                   workers: int = 1) -> list[CellResult]:
    """Execute a sweep and write per-cell artifacts plus the sweep summary CSV."""
    scenario = SCENARIOS[spec.scenario]
    os.makedirs(out_dir, exist_ok=True)
    tasks = [(spec.scenario, scheme, steps, n, scenario.weight_rule)
             for scheme in spec.schemes
             for steps in spec.steps_values
             for n in spec.n_values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell_task, tasks))
    else:
        results = [_run_cell_task(t) for t in tasks]

    sweep_rows = []
    for res in results:
        cell_dir = os.path.join(out_dir, f"{res.scheme}_K{res.steps}_N{res.n}")
        os.makedirs(cell_dir, exist_ok=True)
        res.dd_trace.write_csv(os.path.join(cell_dir, "trace_dd.csv"))
        res.trad_trace.write_csv(os.path.join(cell_dir, "trace_traditional.csv"))
        res.ref_trace.write_csv(os.path.join(cell_dir, "trace_reference.csv"))
        series = energy_mismatch_error(res.dd_trace, res.ref_trace, res.true_model,
                                       res.group, res.index,
                                       element=scenario.metric_element)
        series.write_csv(os.path.join(cell_dir, "error_series.csv"))
        _write_convergence_log(res.dd_trace, cell_dir)
        with open(os.path.join(cell_dir, "config.json"), "w") as fh:
            json.dump({"scenario": res.scenario, "scheme": res.scheme,
                       "steps": res.steps, "n": res.n,
                       "weight_rule": scenario.weight_rule,
                       "t_end": scenario.t_end}, fh, indent=2)
        sweep_rows.append((res.scenario, res.scheme, res.steps, res.n,
                           res.rms, res.median_iters))

    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("scenario,scheme,K,N,rms,median_iters\n")
        for row in sweep_rows:
            fh.write(",".join(str(x) for x in row) + "\n")

    _write_slope_report(results, spec, out_dir)
    return results


def write_convergence_csv(dd_trace: TransientTrace, path: str) -> None:
    """One row per data-driven iteration: step, iteration and energy mismatch."""
    with open(path, "w", newline="") as fh:
        fh.write("step,iteration,energy_mismatch\n")
        for k, step in enumerate(dd_trace.step_details):
            if step is None:
                continue
            for it, mm in enumerate(step.em_history, start=1):
                fh.write(f"{k},{it},{mm:.17g}\n")


def _write_convergence_log(dd_trace: TransientTrace, cell_dir: str) -> None:
    write_convergence_csv(dd_trace, os.path.join(cell_dir, "convergence.csv"))
    with open(os.path.join(cell_dir, "summary.csv"), "w", newline="") as fh:
        fh.write("step,iterations,converged,final_mismatch\n")
        for k, step in enumerate(dd_trace.step_details):
            if step is None:
                continue
            fh.write(f"{k},{step.iterations},{int(step.converged)},"
                     f"{step.final_mismatch:.17g}\n")


def _write_slope_report(results: list[CellResult], spec: ExperimentSpec,
                        out_dir: str) -> None:
    lines = []
    for scheme in spec.schemes:
        for steps in spec.steps_values:
            pts = [ConvergencePoint(r.n, r.rms) for r in results
                   if r.scheme == scheme and r.steps == steps and r.rms > 0.0]
            if len({p.n for p in pts}) >= 3:
                slope = convergence_slope(pts)
                lines.append(f"{spec.scenario},{scheme},{steps},{slope:.4f}")
    with open(os.path.join(out_dir, "slopes.csv"), "w", newline="") as fh:
        fh.write("scenario,scheme,K,slope\n")
        for line in lines:
            fh.write(line + "\n")
