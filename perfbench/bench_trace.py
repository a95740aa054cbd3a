"""Span tracing from outside the program.

The traced run replaces public functions and methods of ``ddmna`` by wrappers
that record a span per call: name, start, end and parent span.  Names are
replaced where their callers look them up: class attributes for methods, and
the importing module's globals for functions.  Nothing under ``src/`` changes,
and the wrappers are removed when the run ends.  The hot per-element accessors
of ``CircuitState`` are counted, not timed.
"""

from __future__ import annotations

import math
import time
import types
from collections import Counter, defaultdict

import numpy as np

# Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10


class Tracer:
    """In-memory span store with a stack of open spans (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_idx: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(self, name: str, fn, on_call=None, on_return=None):
        """Wrap fn so that each call records one span named `name`."""
        nid = self._name_id(name)
        name_idx, starts, ends, parents, stack = (
            self.name_idx, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(starts)
            name_idx.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(math.nan)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """Wrap fn so that each call only increments counts[name]."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace owner.attr by wrapper until restore()."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_arrays(self):
        """(names, name index, start, end, parent) as NumPy arrays."""
        return (list(self.names), np.asarray(self.name_idx, dtype=np.int32),
                np.asarray(self.starts), np.asarray(self.ends),
                np.asarray(self.parents, dtype=np.int64))

    def write(self, path) -> None:
        names, idx, start, end, parent = self.span_arrays()
        np.savez_compressed(path, names=np.asarray(names), name_idx=idx,
                            start=start, end=end, parent=parent,
                            count_names=np.asarray(sorted(self.counts)),
                            count_values=np.asarray([self.counts[k] for k in sorted(self.counts)],
                                                    dtype=np.int64))


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the part of its interval that its child spans cover.

    Children are clipped to the parent's interval and overlapping children are
    counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    children = defaultdict(list)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(i)
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for k in sorted(kids, key=lambda i: start[i]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def tail_percentile(samples) -> tuple[float, float]:
    """Highest candidate percentile with at least ten samples beyond it.

    Returns (percentile, value).  "Beyond" counts n * (1 - p/100) samples, so
    the choice depends only on the sample count.  Fewer than 20 samples fall
    back to the median.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        return 0.0, 0.0
    chosen = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if x.size * (1.0 - p / 100.0) >= MIN_BEYOND_TAIL - 1e-9:
            chosen = p
    return chosen, float(np.percentile(x, chosen))


def install(tracer: Tracer) -> dict:
    """Wrap the public boundaries of every ddmna layer; returns extra counters."""
    import scipy.linalg

    from ddmna import dataset, ddsolver, elements, metrics, netlist, reference, scenarios, state

    extra = {"newton_iters": 0}

    def count_offweight(index, pair, w=None):
        if w is not None and w != index.weight:
            tracer.counts["dataset.nn_offweight"] += 1

    def add_newton(out):
        extra["newton_iters"] += int(out[1])

    t, p = tracer.timed, tracer.patch

    # ddsolver: methods on DDSolver, module-level entry point, and the LU
    # routines as ddsolver reaches them (through its own `scipy` global).
    solver = ddsolver.DDSolver
    p(solver, "__init__", t("ddsolver.init", solver.__init__))
    p(solver, "solve_timestep", t("ddsolver.solve_timestep", solver.solve_timestep))
    p(solver, "project_to_kirchhoff", t("ddsolver.kirchhoff", solver.project_to_kirchhoff))
    p(solver, "assemble_projection_matrix",
      t("ddsolver.assemble", solver.assemble_projection_matrix))
    p(solver, "assemble_projection_rhs", t("ddsolver.assemble", solver.assemble_projection_rhs))
    p(solver, "project_to_data", t("ddsolver.data_proj", solver.project_to_data))
    p(solver, "energy_mismatch", t("ddsolver.mismatch", solver.energy_mismatch))
    p(ddsolver, "run_transient_dd", t("ddsolver.run", ddsolver.run_transient_dd))
    linalg = types.SimpleNamespace(
        lu_factor=t("ddsolver.lu_factor", scipy.linalg.lu_factor),
        lu_solve=t("ddsolver.lu_solve", scipy.linalg.lu_solve),
        LinAlgError=scipy.linalg.LinAlgError)
    p(ddsolver, "scipy", types.SimpleNamespace(linalg=linalg))

    # dataset: the index, and the functions ddsolver and scenarios import.
    index = dataset.NearestNeighborIndex
    p(index, "__init__", t("dataset.index_build", index.__init__))
    p(index, "query", t("dataset.nn_query", index.query, on_call=count_offweight))
    p(ddsolver, "local_tangent_weight", t("dataset.tangent", ddsolver.local_tangent_weight))
    p(ddsolver, "nearest_measurement", t("dataset.nearest", ddsolver.nearest_measurement))
    p(scenarios, "generate_measurements", t("dataset.synth", scenarios.generate_measurements))
    p(ddsolver, "generate_measurements", t("dataset.synth", ddsolver.generate_measurements))

    # state: counted only.
    cs = state.CircuitState
    p(cs, "pair", tracer.counted("state.pair", cs.pair))
    p(cs, "set_pair", tracer.counted("state.set_pair", cs.set_pair))
    p(cs, "copy", tracer.counted("state.copy", cs.copy))

    # reference
    trad = reference.TraditionalSolver
    p(trad, "residual_jacobian", t("reference.resjac", trad.residual_jacobian))
    p(trad, "step", t("reference.step", trad.step, on_return=add_newton))
    p(reference, "run_transient_traditional",
      t("reference.run", reference.run_transient_traditional))

    # elements: composite diode evaluations, looked up as elements globals
    # (by elements itself and through `em.` by the other modules).
    p(elements, "composite_diode_current", t("elements.diode", elements.composite_diode_current))
    p(elements, "composite_diode_conductance",
      t("elements.diode", elements.composite_diode_conductance))

    # netlist, scenarios, metrics: as the scenario builder and callers reach them.
    for owner in (netlist, scenarios):
        p(owner, "parse_netlist", t("netlist.parse", owner.parse_netlist))
        p(owner, "build_incidence", t("netlist.parse", owner.build_incidence))
    p(scenarios, "synthesize_datasets", t("scenarios.synthesize", scenarios.synthesize_datasets))
    p(metrics, "rms_error", t("metrics.rms", metrics.rms_error))
    return extra


def layer_metrics(tracer: Tracer, extra: dict, iters: int) -> dict[str, float]:
    """Per-layer counts and self times from the recorded spans."""
    names, idx, start, end, parent = tracer.span_arrays()
    selft = self_times(start, end, parent)
    dur = end - start
    nid = {n: i for i, n in enumerate(names)}

    def mask(name):
        return idx == nid[name] if name in nid else np.zeros(idx.shape, bool)

    def count(name):
        return int(mask(name).sum())

    def self_s(name):
        return float(selft[mask(name)].sum())

    steps_ms = dur[mask("ddsolver.solve_timestep")] * 1e3
    tail_pct, tail_ms = tail_percentile(steps_ms)
    queries = count("dataset.nn_query")
    factors = count("ddsolver.lu_factor")
    diode_calls = count("elements.diode")
    out = {
        "ddsolver.step_ms_p50": float(np.median(steps_ms)) if steps_ms.size else 0.0,
        "ddsolver.step_ms_tail": tail_ms,
        "ddsolver.step_tail_pct": tail_pct,
        "ddsolver.kirchhoff_s": self_s("ddsolver.kirchhoff"),
        "ddsolver.assemble_s": self_s("ddsolver.assemble"),
        "ddsolver.factor_count": factors,
        "ddsolver.factor_s": self_s("ddsolver.lu_factor"),
        "ddsolver.factor_per_iter": factors / iters if iters else 0.0,
        "ddsolver.solve_s": self_s("ddsolver.lu_solve"),
        "ddsolver.data_proj_s": self_s("ddsolver.data_proj"),
        "ddsolver.mismatch_s": self_s("ddsolver.mismatch"),
        "dataset.nn_queries": queries,
        "dataset.nn_query_s": self_s("dataset.nn_query"),
        "dataset.nn_offweight_frac":
            tracer.counts["dataset.nn_offweight"] / queries if queries else 0.0,
        "dataset.tangent_calls": count("dataset.tangent"),
        "dataset.tangent_s": self_s("dataset.tangent"),
        "dataset.index_build_s": self_s("dataset.index_build"),
        "dataset.synth_s": self_s("dataset.synth"),
        "state.pair_calls": tracer.counts["state.pair"] + tracer.counts["state.set_pair"],
        "state.copies": tracer.counts["state.copy"],
        "reference.newton_iters": extra["newton_iters"],
        "reference.resjac_calls": count("reference.resjac"),
        "reference.resjac_s": self_s("reference.resjac"),
        "reference.step_s": self_s("reference.step"),
        "reference.run_s": float(dur[mask("reference.run")].sum()),
        "elements.diode_calls": diode_calls,
        "elements.diode_s": self_s("elements.diode"),
        "netlist.parse_s": self_s("netlist.parse"),
        "metrics.eval_s": self_s("metrics.rms"),
    }
    for layer in ("ddsolver", "dataset", "reference", "elements", "netlist", "metrics",
                  "scenarios"):
        sel = np.zeros(idx.shape, bool)
        for name, i in nid.items():
            if name.startswith(layer + "."):
                sel |= idx == i
        out[f"{layer}.self_s"] = float(selft[sel].sum())
    return out
