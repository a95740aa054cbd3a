"""Measurement sets, weighted nearest-neighbor queries and weighting factors.

Pairs are stored in measurement order: (v, i) for conductive elements (G),
(v, q) for capacitors (C) and (psi, i) for inductors (L).  The metric weight
multiplies the voltage coordinate for G and C and the current coordinate for
L; the complementary coordinate carries the reciprocal weight, so both terms
of a distance have power (G) or energy (C, L) units.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import elements as em
from .netlist import CircuitGraph, DataRef

log = logging.getLogger(__name__)

CSV_HEADERS = {"G": "v,i", "C": "v,q", "L": "psi,i"}
_KIND_OF_HEADER = {v: k for k, v in CSV_HEADERS.items()}

# Index of the weight-carrying coordinate per element kind.
_W_COL = {"G": 0, "C": 0, "L": 1}

# Decades covered by each sign branch of a log-symmetric sampling grid.
LOG_SPAN_DECADES = 12.0


@dataclass
class MeasurementSet:
    """Finite set of measured pairs for one element."""

    kind: str  # "G" | "C" | "L"
    pairs: np.ndarray  # (N, 2)

    def __post_init__(self):
        if self.kind not in ("G", "C", "L"):
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        self.pairs = np.atleast_2d(np.asarray(self.pairs, dtype=float))
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2 or len(self.pairs) < 1:
            raise ValueError("measurement set must be a non-empty (N, 2) array")
        if not np.all(np.isfinite(self.pairs)):
            raise ValueError("measurement pairs must be finite")
        _, idx = np.unique(self.pairs, axis=0, return_index=True)
        if len(idx) != len(self.pairs):
            log.warning("dropping %d duplicate measurement pairs",
                        len(self.pairs) - len(idx))
            self.pairs = self.pairs[np.sort(idx)]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SamplingPlan:
    """Grid specification for synthesizing measurement data."""

    lo: float
    hi: float
    count: int
    spacing: str = "uniform"  # or "log-symmetric"
    drive: str = "v"          # gridded coordinate: "v" (G, C), "i" or "psi" (L, diode)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        if self.count > 1 and not self.hi > self.lo:
            raise ValueError("degenerate range needs count == 1")
        if self.spacing not in ("uniform", "log-symmetric"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def grid(self) -> np.ndarray:
        if self.count == 1:
            return np.array([0.5 * (self.lo + self.hi)])
        if self.spacing == "uniform":
            return np.linspace(self.lo, self.hi, self.count)
        return _log_symmetric_grid(self.lo, self.hi, self.count)


def _log_symmetric_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """Log-spaced grid covering [lo, hi], split per sign, endpoints included."""
    def one_sided(bound: float, n: int) -> np.ndarray:
        top = np.log10(abs(bound))
        return np.sign(bound) * np.logspace(top - LOG_SPAN_DECADES, top, n)

    if lo > 0.0:
        return np.logspace(np.log10(lo), np.log10(hi), count)
    if hi < 0.0:
        return -np.logspace(np.log10(-hi), np.log10(-lo), count)[::-1]
    if lo == 0.0:
        return np.concatenate([[0.0], one_sided(hi, count - 1)])
    if hi == 0.0:
        return np.concatenate([one_sided(lo, count - 1)[::-1], [0.0]])
    n_pos = count - count // 2
    n_neg = count // 2
    return np.concatenate([one_sided(lo, n_neg)[::-1], one_sided(hi, n_pos)])


@dataclass
class ElementWeight:
    """Computational metric coefficient for one element (not a physical value)."""

    value: float

    def __post_init__(self):
        if not (0.0 < self.value < np.inf):
            raise ValueError(f"weight must satisfy 0 < w < inf, got {self.value}")


@dataclass
class ElementBinding:
    """How one passive element is resolved: known model or measurement data."""

    name: str
    group: str              # "G" | "C" | "L"
    mode: str               # "known" | "data"
    model: object = None
    data: MeasurementSet | None = None

    def __post_init__(self):
        if self.mode == "known" and self.model is None:
            raise ValueError(f"{self.name}: known binding needs a model")
        if self.mode == "data" and self.data is None:
            raise ValueError(f"{self.name}: data binding needs a measurement set")


def generate_measurements(model, plan: SamplingPlan, kind: str | None = None) -> MeasurementSet:
    """Evaluate a model exactly on the plan's grid (noise-free pairs)."""
    grid = plan.grid()
    if isinstance(model, em.ShockleyDiodeModel):
        if plan.drive != "i":
            raise ValueError("diode measurement plans grid the current coordinate")
        pairs = np.column_stack([em.composite_diode_voltage(model, grid), grid])
        return MeasurementSet("G", pairs)
    if isinstance(model, em.MlccCapacitorModel):
        pairs = np.column_stack([grid, em.mlcc_charge(model, grid)])
        return MeasurementSet("C", pairs)
    if isinstance(model, em.LinearModel):
        if model.kind == "L":
            if plan.drive == "psi":
                pairs = np.column_stack([grid, grid / model.value])
            else:
                pairs = np.column_stack([model.value * grid, grid])
        else:
            pairs = np.column_stack([grid, model.value * grid])
        return MeasurementSet(model.kind, pairs)
    raise TypeError(f"cannot generate measurements for {model!r}")


def weighted_pair_distance(p, p_ref, w: float, kind: str) -> float:
    """Half-weighted squared distance between two pairs of one element kind."""
    iw = _W_COL[kind]
    da = p[iw] - p_ref[iw]
    db = p[1 - iw] - p_ref[1 - iw]
    return 0.5 * w * da * da + 0.5 / w * db * db


def pair_norm(p, w: float, kind: str) -> float:
    """Half-weighted squared norm of a single pair."""
    iw = _W_COL[kind]
    return 0.5 * w * p[iw] ** 2 + 0.5 / w * p[1 - iw] ** 2


def _distances(pairs: np.ndarray, query, w: float, kind: str) -> np.ndarray:
    iw = _W_COL[kind]
    da = pairs[:, iw] - query[iw]
    db = pairs[:, 1 - iw] - query[1 - iw]
    return 0.5 * w * da * da + 0.5 / w * db * db


def nearest_measurement(mset: MeasurementSet, query, w: float) -> tuple[np.ndarray, int]:
    """Closest stored pair under the weighted metric; ties break to lowest index."""
    idx = int(np.argmin(_distances(mset.pairs, query, w, mset.kind)))
    return mset.pairs[idx].copy(), idx


class NearestNeighborIndex:
    """kd-tree over metric-scaled pairs; exact for the weight it was built with.

    Queries with a different weight (local-tangent mode) fall back to a
    vectorized brute-force scan, since the tree geometry assumes a fixed
    metric.
    """

    def __init__(self, mset: MeasurementSet, weight: float):
        self.mset = mset
        self.weight = float(weight)
        self._scale = self._scaling(mset.kind, self.weight)
        self._tree = cKDTree(mset.pairs * self._scale)

    @staticmethod
    def _scaling(kind: str, w: float) -> np.ndarray:
        iw = _W_COL[kind]
        s = np.empty(2)
        s[iw] = np.sqrt(0.5 * w)
        s[1 - iw] = np.sqrt(0.5 / w)
        return s

    def query(self, pair, w: float | None = None) -> tuple[np.ndarray, int]:
        if w is None or w == self.weight:
            _, idx = self._tree.query(np.asarray(pair, float) * self._scale)
            idx = int(idx)
        else:
            idx = int(np.argmin(_distances(self.mset.pairs, pair, w, self.mset.kind)))
        return self.mset.pairs[idx].copy(), idx


def local_tangent_weight(mset: MeasurementSet, state_pair, k: int,
                         current: ElementWeight,
                         w_min: float, w_max: float) -> ElementWeight:
    """Absolute least-squares slope through the k nearest pairs around a state.

    The slope is response over drive (di/dv for G, dq/dv for C, dpsi/di for L),
    clamped to [w_min, w_max].  A degenerate neighborhood (no spread in the
    drive coordinate) keeps the current weight.
    """
    if len(mset) < 2 or k < 2:
        raise ValueError("local tangent needs at least two pairs and k >= 2")
    k = min(k, len(mset))
    d = _distances(mset.pairs, state_pair, current.value, mset.kind)
    neighbors = mset.pairs[np.argpartition(d, k - 1)[:k]]
    ia = _W_COL[mset.kind]
    a = neighbors[:, ia]
    b = neighbors[:, 1 - ia]
    a_c = a - a.mean()
    var = float(a_c @ a_c)
    if var <= 0.0:
        log.warning("degenerate local-tangent neighborhood; keeping previous weight")
        return ElementWeight(current.value)
    slope = abs(float(a_c @ (b - b.mean())) / var)
    return ElementWeight(min(max(slope, w_min), w_max))


def project_known_linear(w: float, query, kind: str = "G") -> np.ndarray:
    """Closest point on the line response = w * drive under the weight-w metric."""
    ia = _W_COL[kind]
    a = 0.5 * (query[ia] + query[1 - ia] / w)
    out = np.empty(2)
    out[ia] = a
    out[1 - ia] = w * a
    return out


def chord_weight(mset: MeasurementSet) -> float:
    """Global chord slope of a measurement set (constant-weight default)."""
    ia = _W_COL[mset.kind]
    da = np.ptp(mset.pairs[:, ia])
    db = np.ptp(mset.pairs[:, 1 - ia])
    if da > 0.0 and db > 0.0:
        return db / da
    # Degenerate cloud: fall back to the magnitude ratio of the extreme point.
    j = int(np.argmax(np.abs(mset.pairs[:, ia])))
    a, b = mset.pairs[j]
    if ia == 1:
        a, b = b, a
    if a != 0.0 and b != 0.0:
        return abs(b / a)
    return 1.0


def default_weight(binding: ElementBinding) -> ElementWeight:
    """Constant weighting factor: model coefficient if known, chord slope if data."""
    if binding.mode == "data":
        return ElementWeight(chord_weight(binding.data))
    model = binding.model
    if isinstance(model, em.LinearModel):
        return ElementWeight(model.value)
    if isinstance(model, em.MlccCapacitorModel):
        return ElementWeight(model.c0)
    if isinstance(model, em.ShockleyDiodeModel):
        # Scale-aware stand-in: conductance at a 1 mA forward operating point.
        v_ref = em.composite_diode_voltage(model, 1e-3)
        return ElementWeight(em.composite_diode_conductance(model, v_ref))
    raise TypeError(f"no default weight for {model!r}")


def operating_envelope(trace, graph: CircuitGraph,
                       margin: float = 1.0) -> dict[str, tuple[float, float]]:
    """Per-element range of the driving coordinate over a trace, widened by margin.

    The driving coordinate is the current for inductors and diodes and the
    voltage otherwise.  The range is widened symmetrically about its
    midpoint; a degenerate range collapses to m +/- (margin - 1) * max(|m|, 1).
    """
    if len(trace.states) == 0:
        raise ValueError("empty trace")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    out = {}
    for group in "GCL":
        for j, e in enumerate(graph.groups[group]):
            col = 1 if (group == "L" or e.kind == "diode") else 0
            pairs = trace.pairs(group, j)
            lo, hi = float(pairs[:, col].min()), float(pairs[:, col].max())
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            if half > 0.0:
                out[e.name] = (mid - margin * half, mid + margin * half)
            else:
                pad = (margin - 1.0) * max(abs(mid), 1.0)
                out[e.name] = (mid - pad, mid + pad)
    return out


def save_measurements(mset: MeasurementSet, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADERS[mset.kind] + "\n")
        np.savetxt(fh, mset.pairs, fmt="%.17g", delimiter=",")


def load_measurements(path) -> MeasurementSet:
    with open(path) as fh:
        header = fh.readline().strip().lower()
        kind = _KIND_OF_HEADER.get(header)
        if kind is None:
            raise ValueError(f"{path}: unknown measurement header {header!r}")
        pairs = np.loadtxt(fh, delimiter=",", ndmin=2)
    return MeasurementSet(kind, pairs)


def bindings_from_graph(graph: CircuitGraph, base_dir: str = ".") -> list[ElementBinding]:
    """One binding per passive element, loading DATA references from disk."""
    bindings = []
    for group in "GCL":
        for e in graph.groups[group]:
            if isinstance(e.payload, DataRef):
                path = e.payload.path
                if not os.path.isabs(path):
                    path = os.path.join(base_dir, path)
                bindings.append(ElementBinding(e.name, group, "data",
                                               data=load_measurements(path)))
            else:
                bindings.append(ElementBinding(e.name, group, "known", model=e.payload))
    return bindings
