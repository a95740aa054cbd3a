"""Measurement sets, their weighted metric, nearest-neighbor search and weights.

Each pair is (v, i) for conductive elements (G), (v, q) for capacitors (C)
and (psi, i) for inductors (L).  The metric weight multiplies the voltage
coordinate for G and C and the current coordinate for L; the complementary
coordinate carries the reciprocal weight, so both terms of a distance have
power (G) or energy (C, L) units.

A `MeasurementSet` holds its pairs in one order, by the weight-carrying
coordinate a, then by the other coordinate b; an index into a set, the
solvers' selection included, refers to it.  `FlatIndex` holds several sets
as their contiguous a and b columns.  Its `minimize` is the one search
kernel: the exact k pairs of one set of least value of a 2×2 quadratic,
ties to the lowest index, the data solver's block search.  Its `nearest`,
the k nearest pairs to one query under any weight with no rebuild, is the
case of the weighted distance, and agrees with the brute-force scan
`nearest_measurement`, ties included.
`NearestNeighborIndex` is the flat index of one set, with a default weight.
`local_tangent_weight` turns the k nearest pairs of one set around a state
into a local-slope weight.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

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
        # Held sorted by a, then b, so the search needs no order of its own.
        # Values compare as numbers (-0.0 equals 0.0) in a stable sort, so
        # each first occurrence leads its run of duplicates.  Rows already
        # in that order, as synthesized sets arrive, take no sort.
        ia = _W_COL[self.kind]
        a, b = self.pairs[:, ia], self.pairs[:, 1 - ia]
        if not ((a[:-1] < a[1:]) | ((a[:-1] == a[1:]) & (b[:-1] <= b[1:]))).all():
            self.pairs = self.pairs[np.lexsort((b, a))]
            a, b = self.pairs[:, ia], self.pairs[:, 1 - ia]
        dup = a[1:] == a[:-1]
        dup &= b[1:] == b[:-1]
        if dup.any():
            log.warning("dropping %d duplicate measurement pairs", int(dup.sum()))
            self.pairs = self.pairs[np.concatenate([[True], ~dup])]

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SamplingPlan:
    """Grid specification for synthesizing measurement data."""

    lo: float
    hi: float
    count: int
    spacing: str = "uniform"  # or "log-symmetric"

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
    """Log-spaced grid covering [lo, hi], split per sign, endpoints included:
    a sign branch of one point is its bound."""
    def one_sided(bound: float, n: int) -> np.ndarray:
        if n == 1:
            return np.array([bound])
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


def generate_measurements(model, plan: SamplingPlan) -> MeasurementSet:
    """Evaluate a model exactly on the plan's grid (noise-free pairs).  The
    grid is the current of a diode or an inductor, the voltage otherwise."""
    grid = plan.grid()
    if isinstance(model, em.ShockleyDiodeModel):
        pairs = np.column_stack([em.composite_diode_voltage(model, grid), grid])
        return MeasurementSet("G", pairs)
    if isinstance(model, em.MlccCapacitorModel):
        pairs = np.column_stack([grid, em.mlcc_charge(model, grid)])
        return MeasurementSet("C", pairs)
    if isinstance(model, em.LinearModel):
        if model.kind == "L":
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
    weight per pair; the result broadcasts over the leading axes.  Arrays
    and scalars give bit-identical values.
    """
    iw = _W_COL[kind]
    da = p[..., iw] - p_ref[..., iw]
    db = p[..., 1 - iw] - p_ref[..., 1 - iw]
    return 0.5 * w * da * da + 0.5 / w * db * db


def pair_norm(p, w, kind: str):
    """Half-weighted squared norm of a pair, or of each pair of an array.  Squares
    go through pow(), as a scalar's `** 2` does; an array's `** 2` multiplies."""
    iw = _W_COL[kind]
    return 0.5 * w * np.float_power(p[..., iw], 2) + 0.5 / w * np.float_power(p[..., 1 - iw], 2)


def nearest_measurement(mset: MeasurementSet, query, w: float) -> tuple[np.ndarray, int]:
    """Closest stored pair under the weighted metric; ties break to lowest index."""
    idx = int(np.argmin(weighted_pair_distance(mset.pairs, np.asarray(query), w, mset.kind)))
    return mset.pairs[idx].copy(), idx


# Sets larger than this are searched by chunks in `FlatIndex.minimize`.
_SCAN_ALL = 4096
# A chunk's lower bound of q gives way by this fraction of the magnitudes of
# q's terms over the chunk, which covers the rounding of q and of the bound.
_BOUND_ULPS = 64.0 * np.finfo(float).eps


class FlatIndex:
    """Several measurement sets, each as its contiguous columns a and b in
    the set's order, so a position is an index in the set.  `minimize` is
    the search kernel, and `nearest` its case of the weighted distance.
    """

    def __init__(self, msets):
        self.msets = list(msets)
        # Per set: its columns a and b, and for a large set the chunks of
        # about sqrt(N) positions: their starts (and its end) and their
        # bounding boxes (rows: a low, b low, a high, b high).
        self.cols, self._boxes = [], []
        for m in self.msets:
            ia, n = _W_COL[m.kind], len(m)
            a, b = np.array([m.pairs[:, ia], m.pairs[:, 1 - ia]])
            self.cols.append((a, b))
            chunks = None
            if n > _SCAN_ALL:
                first = np.arange(0, n, math.isqrt(n))
                last = np.append(first[1:], n) - 1
                chunks = np.append(first, n), np.array([
                    a[first], np.minimum.reduceat(b, first),
                    a[last], np.maximum.reduceat(b, first)])
            self._boxes.append(chunks)

    def nearest(self, s: int, pair, w: float, k: int = 1) -> np.ndarray:
        """Indices of the k nearest pairs of set s to one pair, (v, i), (v, q)
        or (psi, i), under weight w, as in `nearest_measurement`: `minimize` of
        0.5 w da² + 0.5 / w db², bit for bit `weighted_pair_distance`."""
        ia, w = _W_COL[self.msets[s].kind], float(w)
        return self.minimize(s, (float(pair[ia]), float(pair[1 - ia])),
                             (0.5 * w, 0.0, 0.5 / w), (0.0, 0.0), k)

    def minimize(self, s: int, center, gram, g, k: int = 1) -> np.ndarray:
        """Indices of the k pairs of set s (all of them, if it has fewer) of
        least q(d) = d·G d - 2 g·d, with d their (a, b) minus center, ordered
        by q, ties to the lowest index.  G = [[g_aa, g_ab], [g_ab, g_bb]] is
        positive semidefinite (`gram` = (g_aa, g_ab, g_bb)); g = (g_a, g_b)
        and center = (a, b); all Python floats.

        A set of at most `_SCAN_ALL` pairs is scanned whole.  In a larger
        one, q is bounded below over each chunk's box; r is the k-th least q
        of the chunk of least bound, and the scan runs from the first to the
        last chunk whose bound is at most r.
        """
        if self._boxes[s] is None:
            a, b = self.cols[s]
            return _least(_quadratic(a - center[0], b - center[1], gram, g), k)
        q, lo = self._scan(s, center, gram, g, k)
        return _least(q, k) + lo

    def _scan(self, s: int, center, gram, g, k: int) -> tuple[np.ndarray, int]:
        """q over the stretch that `minimize` scans in the large set s, and
        the stretch's first position.  Over a box, q is bounded below in G's
        eigenbasis, where it splits into two one-dimensional quadratics,
        each minimised over its coordinate's range on the box (linear where
        a rounded eigenvalue is <= 0).  The rotation is exact on the axes
        (|theta| <= pi/4, eigenvalues from Rayleigh quotients), so the bound
        of a diagonal G with g = 0, the weighted distance, takes q's own
        operations, and no pair's q is below it.  Otherwise each box's bound
        gives way by `_BOUND_ULPS` of the magnitudes of q's terms at the
        box's far ends, which also covers a small negative eigenvalue.
        """
        starts, box = self._boxes[s]
        ac, bc = center
        d = box - np.array([[ac], [bc], [ac], [bc]])
        g_aa, g_ab, g_bb = gram
        if g_aa != g_bb:
            theta = 0.5 * math.atan(2.0 * g_ab / (g_aa - g_bb))
        else:
            theta = 0.25 * math.pi if g_ab else 0.0
        c, sn = math.cos(theta), math.sin(theta)
        # Per direction e: its weights of d's rows that give the least e·d
        # over each box, and the clipped minimiser, lam and 2 beta.
        rows, coef = [], []
        for ea, eb in ((c, sn), (-sn, c)):
            lam = ea * (g_aa * ea + g_ab * eb) + eb * (g_ab * ea + g_bb * eb)
            beta = ea * g[0] + eb * g[1]
            rows.append([max(ea, 0.0), max(eb, 0.0), min(ea, 0.0), min(eb, 0.0)])
            coef.append((beta / lam if lam > 0.0 else math.copysign(math.inf, beta),
                         max(lam, 0.0), 2.0 * beta))
        lohi = np.array(rows + [r[2:] + r[:2] for r in rows]).dot(d)  # least, most e·d
        coef = np.array(coef)
        x = np.minimum(np.maximum(coef[:, :1], lohi[:2]), lohi[2:])
        lb = x * (coef[:, 1:2] * x - coef[:, 2:])
        if g_ab or g[0] or g[1]:
            ext = np.maximum(-d[:2], d[2:])  # the far ends' |da| and |db|
            mag = np.array([[abs(g_aa), 2.0 * abs(g_ab), 2.0 * abs(g[0])],
                            [0.0, abs(g_bb), 2.0 * abs(g[1])]]) * _BOUND_ULPS
            lb -= (mag[:, :2].dot(ext) + mag[:, 2:]) * ext
        lb = lb[0] + lb[1]
        j = lb.argmin()
        a, b = self.cols[s]
        lo, hi = starts[j], starts[j + 1]
        q = _quadratic(a[lo:hi] - ac, b[lo:hi] - bc, gram, g)
        r = np.partition(q, k - 1)[k - 1] if k <= q.size else np.inf
        sel = (lb <= r).nonzero()[0]
        if sel[0] != j or sel[-1] != j:  # more than the chunk of least bound
            lo, hi = starts[sel[0]], starts[sel[-1] + 1]
            q = _quadratic(a[lo:hi] - ac, b[lo:hi] - bc, gram, g)
        return q, lo


def _quadratic(da, db, gram, g):
    """q = d·G d - 2 g·d for each d = (da, db); a zero coefficient adds no term."""
    g_aa, g_ab, g_bb = gram
    q = g_aa * da
    if g_ab:
        q += 2.0 * g_ab * db
    if g[0]:
        q -= 2.0 * g[0]
    q *= da
    t = g_bb * db
    if g[1]:
        t -= 2.0 * g[1]
    t *= db
    q += t
    return q


def _least(q, k: int) -> np.ndarray:
    """The positions of the k least entries of q, ordered by q, ties to the
    lowest position."""
    if k == 1:
        return q.argmin(keepdims=True)
    sel = (q <= np.partition(q, k - 1)[k - 1]).nonzero()[0] if k < q.size else np.arange(q.size)
    return sel[np.argsort(q[sel], kind="stable")[:k]]


class NearestNeighborIndex(FlatIndex):
    """The `FlatIndex` of one measurement set, with a default weight: exact
    weighted nearest queries under any weight, no rebuild.
    """

    def __init__(self, mset: MeasurementSet, weight: float):
        super().__init__([mset])
        self.mset = mset
        self.weight = float(weight)

    def query(self, pair, w: float | None = None) -> tuple[np.ndarray, int]:
        """Nearest stored pair and its index under weight w (default: the index weight)."""
        idx = int(self.nearest(0, pair, self.weight if w is None else w)[0])
        return self.mset.pairs[idx].copy(), idx


def local_tangent_weight(flat: FlatIndex, s: int, state_pair, k: int,
                         current: float, w_min: float, w_max: float) -> float:
    """Absolute least-squares slope through the k nearest pairs of set s of
    `flat` around a state.

    The neighbours are found under the current weight and fitted in ascending
    index order.  The slope is response over drive (di/dv for G, dq/dv for C,
    dpsi/di for L), clamped to [w_min, w_max].  A degenerate neighborhood (no
    spread in the drive coordinate) keeps the current weight.
    """
    mset = flat.msets[s]
    if len(mset) < 2 or k < 2:
        raise ValueError("local tangent needs at least two pairs and k >= 2")
    neighbors = mset.pairs[np.sort(flat.nearest(s, state_pair, current, k))]
    ia = _W_COL[mset.kind]
    a, b = neighbors[:, ia], neighbors[:, 1 - ia]
    a_c = a - a.sum() / len(a)  # the mean, without np.mean's call overhead
    var = float(a_c @ a_c)
    if var <= 0.0:
        log.warning("degenerate local-tangent neighborhood; keeping previous weight")
        return current
    slope = abs(float(a_c @ (b - b.sum() / len(b))) / var)
    return min(max(slope, w_min), w_max)


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


def operating_envelope(trace, graph: CircuitGraph,
                       margin: float = 1.0) -> dict[str, tuple[float, float]]:
    """Per-element range of the driving coordinate over a trace, widened by margin.

    The driving coordinate is the current for inductors and diodes and the
    voltage otherwise.  The range is widened symmetrically about its
    midpoint; a degenerate range collapses to m +/- (margin - 1) * max(|m|, 1).
    """
    if len(trace.times) == 0:
        raise ValueError("empty trace")
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    elements = [(group, e) for group in "GCL" for e in graph.groups[group]]
    cols = [int(group == "L" or e.kind == "diode") for group, e in elements]
    drive = trace.series(None)[:, 2 * np.arange(len(cols)) + cols]  # (K+1, elements)
    lo, hi = drive.min(axis=0), drive.max(axis=0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    pad = (margin - 1.0) * np.maximum(np.abs(mid), 1.0)
    lo, hi = np.where(half > 0.0, [mid - margin * half, mid + margin * half],
                      [mid - pad, mid + pad])
    return {e.name: bounds for (_, e), bounds in zip(elements, zip(lo.tolist(), hi.tolist()))}


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


def bindings_by_group(graph: CircuitGraph, bindings: list[ElementBinding]
                      ) -> dict[str, list[ElementBinding]]:
    """The binding of every G, C and L element, per group in incidence column
    order: the one place a solver resolves and checks its bindings."""
    by_name = {b.name: b for b in bindings}
    table = {}
    for group in "GCL":
        table[group] = [by_name.get(e.name) for e in graph.groups[group]]
        for e, b in zip(graph.groups[group], table[group]):
            if b is None:
                raise ValueError(f"no binding for element {e.name}")
            if b.group != group:
                raise ValueError(f"binding group mismatch for {e.name}")
    return table


def held_values(table: dict[str, list[ElementBinding]], q_c0: np.ndarray,
                psi_l0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Capacitor voltages and inductor currents that hold q_c0 and psi_l0 at t0,
    from a `bindings_by_group` table: the model's, or those of the data pair
    nearest in charge (C) or flux (L)."""
    v_c0, i_l0 = np.zeros(len(q_c0)), np.zeros(len(psi_l0))
    for j, b in enumerate(table["C"]):
        if b.mode == "known":
            v_c0[j] = em.capacitor_voltage_from_charge(b.model, q_c0[j])
        else:
            v_c0[j] = b.data.pairs[np.argmin(np.abs(b.data.pairs[:, 1] - q_c0[j])), 0]
    for j, b in enumerate(table["L"]):
        if b.mode == "known":
            i_l0[j] = psi_l0[j] / b.model.value
        else:
            i_l0[j] = b.data.pairs[np.argmin(np.abs(b.data.pairs[:, 0] - psi_l0[j])), 1]
    return v_c0, i_l0
