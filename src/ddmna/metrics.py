"""Error measures comparing transient traces: per-step energy-mismatch error,
RMS-over-time error, the time-vs-data error decomposition, and the empirical
convergence rate over dataset size.

Weights are the true model parameters of the reference solution; for
nonlinear elements the local tangent of the true model at the reference
operating point of each step is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elements as em
from .dataset import pair_norm, weighted_pair_distance
from .state import TransientTrace


@dataclass
class ErrorSeries:
    element: str
    times: np.ndarray
    values: np.ndarray   # squared energy mismatch per step
    weights: np.ndarray  # true-parameter weight used per step

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,eps2_em\n")
            for t, v in zip(self.times, self.values):
                fh.write(f"{t:.17g},{v:.17g}\n")


@dataclass(frozen=True)
class ConvergencePoint:
    n: int      # total measurement count
    rms: float

    def __post_init__(self):
        if self.n < 1 or self.rms < 0.0:
            raise ValueError("invalid convergence point")


def true_weights(true_model, ref_pairs: np.ndarray, group: str) -> np.ndarray:
    """Per-step metric weight from the true model along the reference trace."""
    if isinstance(true_model, em.LinearModel):
        return np.full(len(ref_pairs), true_model.value)
    if isinstance(true_model, em.MlccCapacitorModel):
        return em.mlcc_capacitance(true_model, ref_pairs[:, 0])
    if isinstance(true_model, em.ShockleyDiodeModel):
        return np.array([em.composite_diode_conductance(true_model, v)
                         for v in ref_pairs[:, 0]])
    raise TypeError(f"no true-parameter weight for {true_model!r}")


def energy_mismatch_error(trace: TransientTrace, ref_trace: TransientTrace,
                          true_model, group: str, index: int,
                          element: str = "") -> ErrorSeries:
    """Squared weighted distance to the reference, per time step, for one element."""
    if len(trace.times) != len(ref_trace.times) or \
            not np.allclose(trace.times, ref_trace.times):
        raise ValueError("traces must share the time grid")
    pairs = trace.pairs(group, index)
    ref_pairs = ref_trace.pairs(group, index)
    w = true_weights(true_model, ref_pairs, group)
    values = np.array([weighted_pair_distance(p, pr, wk, group)
                       for p, pr, wk in zip(pairs, ref_pairs, w)])
    return ErrorSeries(element=element, times=trace.times.copy(),
                       values=values, weights=w)


def rms_error(trace: TransientTrace, ref_trace: TransientTrace,
              true_model, group: str, index: int) -> float:
    """Relative RMS error over the whole interval (discrete-sum form)."""
    series = energy_mismatch_error(trace, ref_trace, true_model, group, index)
    ref_pairs = ref_trace.pairs(group, index)
    denom = sum(pair_norm(p, wk, group) for p, wk in zip(ref_pairs, series.weights))
    if denom <= 0.0:
        raise ValueError("degenerate all-zero reference trace")
    return float(np.sqrt(series.values.sum() / denom))


@dataclass(frozen=True)
class ErrorDecomposition:
    eps_time: float   # traditional vs reference (RMS)
    eps_data: float   # data-driven vs traditional (RMS)
    eps_total: float  # data-driven vs reference (RMS)
    bound_satisfied: bool  # squared-sum bound: sum|ref-dd|^2 <= sum|ref-trad|^2 + sum|dd-trad|^2


def decompose_error(dd_trace: TransientTrace, trad_trace: TransientTrace,
                    ref_trace: TransientTrace, true_model, group: str,
                    index: int) -> ErrorDecomposition:
    """Split the overall error into time-discretization and finite-data parts."""
    eps_time = rms_error(trad_trace, ref_trace, true_model, group, index)
    eps_data = rms_error(dd_trace, trad_trace, true_model, group, index)
    eps_total = rms_error(dd_trace, ref_trace, true_model, group, index)

    # Triangle inequality on the normalized root errors.  A plain sum of the
    # squared parts would drop the cross term and does not bound the total.
    bound = eps_total <= eps_time + eps_data + 1e-12 * (eps_time + eps_data)
    return ErrorDecomposition(eps_time=eps_time, eps_data=eps_data,
                              eps_total=eps_total, bound_satisfied=bool(bound))


def convergence_slope(points: list[ConvergencePoint]) -> float:
    """Least-squares slope of log10(rms) vs log10(N)."""
    ns = sorted({p.n for p in points})
    if len(ns) < 3:
        raise ValueError("need at least 3 points with distinct N")
    x = np.log10([p.n for p in points])
    y = np.log10([max(p.rms, 1e-300) for p in points])
    return float(np.polyfit(x, y, 1)[0])
