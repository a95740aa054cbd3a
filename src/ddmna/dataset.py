"""Measurement sets, their weighted metric, nearest-neighbor search and weights.

Pairs are stored in measurement order: (v, i) for conductive elements (G),
(v, q) for capacitors (C) and (psi, i) for inductors (L).  The metric weight
multiplies the voltage coordinate for G and C and the current coordinate for
L; the complementary coordinate carries the reciprocal weight, so both terms
of a distance have power (G) or energy (C, L) units.

`NearestNeighborIndex` answers exact weighted k-nearest queries under any
weight, with no rebuild, from two sorted orders of a set's coordinates.  It
agrees with the brute-force scan `nearest_measurement`, ties included (the
lowest index wins).  `local_tangent_weight` turns the k nearest pairs around
a state into a local-slope weight.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

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


def checked_weight(value) -> float:
    """A metric weight as a float; it must satisfy 0 < w < inf."""
    w = float(value)
    if not (0.0 < w < np.inf):
        raise ValueError(f"weight must satisfy 0 < w < inf, got {w}")
    return w


def weighted_pair_distance(p, p_ref, w, kind: str):
    """Half-weighted squared distance between pairs of one element kind.

    p and p_ref are pairs or arrays of pairs (last axis), w a weight or one
    weight per pair; the result broadcasts over the leading axes.
    """
    iw = _W_COL[kind]
    return _ab_distances(p[..., iw], p[..., 1 - iw], p_ref[..., iw], p_ref[..., 1 - iw], w)


def pair_norm(p, w, kind: str):
    """Half-weighted squared norm of a pair, or of each pair of an array.  Squares
    go through pow(), as a scalar's `** 2` does; an array's `** 2` multiplies."""
    iw = _W_COL[kind]
    return 0.5 * w * np.float_power(p[..., iw], 2) + 0.5 / w * np.float_power(p[..., 1 - iw], 2)


def _ab_distances(a, b, qa, qb, w: float):
    """Half-weighted squared distances of pairs (a, b) from (qa, qb).

    a carries the weight.  Arrays and scalars give bit-identical values.
    """
    da = a - qa
    db = b - qb
    return 0.5 * w * da * da + 0.5 / w * db * db


def nearest_measurement(mset: MeasurementSet, query, w: float) -> tuple[np.ndarray, int]:
    """Closest stored pair under the weighted metric; ties break to lowest index."""
    idx = int(np.argmin(weighted_pair_distance(mset.pairs, np.asarray(query), w, mset.kind)))
    return mset.pairs[idx].copy(), idx


# A slab half-width h around coordinate q grows by this fraction of |q| + h,
# which covers the rounding of a computed distance and of the bounds q -/+ h.
_SLAB_ULPS = 8.0 * np.finfo(float).eps


class NearestNeighborIndex:
    """Exact weighted k-nearest search in one measurement set, for any weight.

    The index holds the set's pairs in two sorted orders: by the
    weight-carrying coordinate a and by the other coordinate b.  A query under
    weight w first bounds the k-th nearest distance by r, the k-th smallest
    distance among the pairs around the query's insertion point in the a
    order.  Every pair within r lies in the slab |a - a_q| <= sqrt(2 r / w)
    and in the slab |b - b_q| <= sqrt(2 r w); the smaller slab is ranked.
    Distances use the expression of `nearest_measurement`, and ties break to
    the lowest index, so every answer equals the brute-force one.
    `step_in_a` walks the a order, which is how a solver reaches a pick's
    neighbours on the set's measurement curve.

    `weight` is only the default weight of `query`.
    """

    def __init__(self, mset: MeasurementSet, weight: float):
        self.mset = mset
        self.weight = float(weight)
        self._ia = _W_COL[mset.kind]
        a, b = mset.pairs[:, self._ia], mset.pairs[:, 1 - self._ia]
        # Per order: (original index, a, b), all sorted by that order's key.
        self._orders = []
        for key in (a, b):
            order = np.argsort(key, kind="stable")
            self._orders.append((order, a[order], b[order]))
        # Position of each original index in the a order.
        self._rank_a = np.empty(len(a), dtype=np.intp)
        self._rank_a[self._orders[0][0]] = np.arange(len(a))

    def step_in_a(self, idx: int, shift: int) -> int:
        """Index of the pair `shift` places from pair idx in the a order.

        The position is clamped to the ends of the order.
        """
        order = self._orders[0][0]
        pos = min(max(int(self._rank_a[idx]) + shift, 0), len(order) - 1)
        return int(order[pos])

    def query(self, pair, w: float | None = None) -> tuple[np.ndarray, int]:
        """Nearest stored pair under weight w (default: the index weight)."""
        w = self.weight if w is None else w
        qa, qb = float(pair[self._ia]), float(pair[1 - self._ia])
        _, a_a, b_a = self._orders[0]
        # Seed: the two pairs that bracket the query in the a order.
        j = int(a_a.searchsorted(qa))
        r = math.inf
        for i in range(max(j - 1, 0), min(j + 1, len(a_a))):
            r = min(r, _ab_distances(a_a.item(i), b_a.item(i), qa, qb, w))
        cand, a, b = self._slab(qa, qb, r, w)
        if len(cand) == 1:
            idx = int(cand[0])
        else:
            d = _ab_distances(a, b, qa, qb, w)
            idx = int(cand[d == d.min()].min())
        return self.mset.pairs[idx].copy(), idx

    def k_nearest(self, pair, k: int, w: float | None = None) -> np.ndarray:
        """Indices of the k nearest pairs under weight w, sorted ascending.

        Ties at the k-th distance take the lowest indices.
        """
        w = self.weight if w is None else w
        k = min(k, len(self.mset))
        qa, qb = float(pair[self._ia]), float(pair[1 - self._ia])
        # Seed: the 2k pairs around the query's insertion point in the a order.
        _, a_a, b_a = self._orders[0]
        n = len(a_a)
        lo = max(0, min(int(a_a.searchsorted(qa)) - k, n - 2 * k))
        hi = min(n, lo + 2 * k)
        d = _ab_distances(a_a[lo:hi], b_a[lo:hi], qa, qb, w)
        r = float(np.partition(d, k - 1)[k - 1])
        cand, a, b = self._slab(qa, qb, r, w)
        d = _ab_distances(a, b, qa, qb, w)
        near = d <= np.partition(d, k - 1)[k - 1]
        cand, d = cand[near], d[near]
        return np.sort(cand[np.lexsort((cand, d))[:k]])

    def _slab(self, qa: float, qb: float, r: float, w: float):
        """(original indices, a, b) of a slab holding every pair within r."""
        idx_a, a_a, b_a = self._orders[0]
        idx_b, a_b, b_b = self._orders[1]
        # A pair at computed distance <= r may lie a few roundings outside
        # the exact slab, so each half-width is widened by a few ulps.
        ha = math.sqrt(2.0 * r / w)
        hb = math.sqrt(2.0 * r * w)
        ha += _SLAB_ULPS * (abs(qa) + ha)
        hb += _SLAB_ULPS * (abs(qb) + hb)
        lo_a = a_a.searchsorted(qa - ha, side="left")
        hi_a = a_a.searchsorted(qa + ha, side="right")
        lo_b = b_b.searchsorted(qb - hb, side="left")
        hi_b = b_b.searchsorted(qb + hb, side="right")
        if hi_a - lo_a <= hi_b - lo_b:
            return idx_a[lo_a:hi_a], a_a[lo_a:hi_a], b_a[lo_a:hi_a]
        return idx_b[lo_b:hi_b], a_b[lo_b:hi_b], b_b[lo_b:hi_b]


def local_tangent_weight(index: NearestNeighborIndex, state_pair, k: int,
                         current: float, w_min: float, w_max: float) -> float:
    """Absolute least-squares slope through the k nearest pairs around a state.

    The neighbours are found under the current weight and fitted in ascending
    index order.  The slope is response over drive (di/dv for G, dq/dv for C,
    dpsi/di for L), clamped to [w_min, w_max].  A degenerate neighborhood (no
    spread in the drive coordinate) keeps the current weight.
    """
    mset = index.mset
    if len(mset) < 2 or k < 2:
        raise ValueError("local tangent needs at least two pairs and k >= 2")
    neighbors = mset.pairs[index.k_nearest(state_pair, k, current)]
    ia = _W_COL[mset.kind]
    a = neighbors[:, ia]
    b = neighbors[:, 1 - ia]
    a_c = a - a.mean()
    var = float(a_c @ a_c)
    if var <= 0.0:
        log.warning("degenerate local-tangent neighborhood; keeping previous weight")
        return current
    slope = abs(float(a_c @ (b - b.mean())) / var)
    return min(max(slope, w_min), w_max)


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


def default_weight(binding: ElementBinding) -> float:
    """Constant weighting factor: model coefficient if known, chord slope if data."""
    if binding.mode == "data":
        return checked_weight(chord_weight(binding.data))
    model = binding.model
    if isinstance(model, em.LinearModel):
        return checked_weight(model.value)
    if isinstance(model, em.MlccCapacitorModel):
        return checked_weight(model.c0)
    if isinstance(model, em.ShockleyDiodeModel):
        # Scale-aware stand-in: conductance at a 1 mA forward operating point.
        v_ref = em.composite_diode_voltage(model, 1e-3)
        return checked_weight(em.composite_diode_conductance(model, v_ref))
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


def held_values(graph: CircuitGraph, bindings: list[ElementBinding], q_c0: np.ndarray,
                psi_l0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacitor voltages and inductor currents that hold q_c0 and psi_l0 at t0:
    the model's, or those of the data pair nearest in charge (C) or flux (L)."""
    by_name = {b.name: b for b in bindings}
    v_c0, i_l0 = np.zeros(len(q_c0)), np.zeros(len(psi_l0))
    for j, e in enumerate(graph.groups["C"]):
        b = by_name[e.name]
        if b.mode == "known":
            v_c0[j] = em.capacitor_voltage_from_charge(b.model, q_c0[j])
        else:
            v_c0[j] = b.data.pairs[np.argmin(np.abs(b.data.pairs[:, 1] - q_c0[j])), 0]
    for j, e in enumerate(graph.groups["L"]):
        b = by_name[e.name]
        if b.mode == "known":
            i_l0[j] = psi_l0[j] / b.model.value
        else:
            i_l0[j] = b.data.pairs[np.argmin(np.abs(b.data.pairs[:, 0] - psi_l0[j])), 1]
    return v_c0, i_l0
