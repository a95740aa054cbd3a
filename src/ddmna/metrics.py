"""Error measures comparing transient traces: per-step energy-mismatch error,
RMS-over-time error, and the empirical convergence rate over dataset size.

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


def true_weights(true_model, ref_pairs: np.ndarray) -> np.ndarray:
    """Per-step metric weight from the true model along the reference trace."""
    if isinstance(true_model, em.LinearModel):
        return np.full(len(ref_pairs), true_model.value)
    return em.response_slope(true_model, ref_pairs[:, 0])[1]


def energy_mismatch_error(trace: TransientTrace, ref_trace: TransientTrace,
                          true_model, group: str, index: int) -> ErrorSeries:
    """Squared weighted distance to the reference, per time step, for one element."""
    if len(trace.times) != len(ref_trace.times) or \
            not np.allclose(trace.times, ref_trace.times):
        raise ValueError("traces must share the time grid")
    pairs = trace.pairs(group, index)
    ref_pairs = ref_trace.pairs(group, index)
    w = true_weights(true_model, ref_pairs)
    return ErrorSeries(times=trace.times.copy(),
                       values=weighted_pair_distance(pairs, ref_pairs, w, group), weights=w)


def rms_error(trace: TransientTrace, ref_trace: TransientTrace,
              true_model, group: str, index: int) -> float:
    """Relative RMS error over the whole interval (discrete-sum form)."""
    series = energy_mismatch_error(trace, ref_trace, true_model, group, index)
    ref_pairs = ref_trace.pairs(group, index)
    # summed in step order: cumsum adds left to right, np.sum pairwise
    denom = np.cumsum(pair_norm(ref_pairs, series.weights, group))[-1]
    if denom <= 0.0:
        raise ValueError("degenerate all-zero reference trace")
    return float(np.sqrt(series.values.sum() / denom))


def convergence_slope(points: list[ConvergencePoint]) -> float:
    """Least-squares slope of log10(rms) vs log10(N)."""
    ns = sorted({p.n for p in points})
    if len(ns) < 3:
        raise ValueError("need at least 3 points with distinct N")
    x = np.log10([p.n for p in points])
    y = np.log10([max(p.rms, 1e-300) for p in points])
    return float(np.polyfit(x, y, 1)[0])
