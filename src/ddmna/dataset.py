"""Measurement sets, their weighted metric, nearest-neighbor search and weights.

Pairs are stored in measurement order: (v, i) for conductive elements (G),
(v, q) for capacitors (C) and (psi, i) for inductors (L).  The metric weight
multiplies the voltage coordinate for G and C and the current coordinate for
L; the complementary coordinate carries the reciprocal weight, so both terms
of a distance have power (G) or energy (C, L) units.

`FlatIndex` holds several sets in one flat store: each set's pairs in two
sorted orders of its coordinates, concatenated with per-set offsets.  Its
`nearest` is the one search kernel: the exact k nearest pairs for any
number of queries, each in its own set and under its own weight, in one
call with no Python loop over the sets and no rebuild for a new weight.
Every answer agrees with the brute-force scan `nearest_measurement`, ties
included (the lowest index wins).  Its `minimize` finds the pair of one set
that minimises a 2×2 quadratic, the data solver's block search.
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
        # Duplicates sit next to each other in a lexicographic order (stable,
        # so each first occurrence leads its run); values compare as numbers,
        # so -0.0 equals 0.0.  Rows already in that order, as synthesized
        # sets arrive, are their own stable order: one pass checks it, and
        # the sort is skipped.
        a, b = self.pairs.T
        order = None
        if not ((a[:-1] < a[1:]) | ((a[:-1] == a[1:]) & (b[:-1] <= b[1:]))).all():
            order = np.lexsort((b, a))
            a, b = a.take(order), b.take(order)
        dup = a[1:] == a[:-1]
        dup &= b[1:] == b[:-1]
        if dup.any():
            log.warning("dropping %d duplicate measurement pairs", int(dup.sum()))
            keep = np.concatenate([[True], ~dup])
            self.pairs = self.pairs[keep if order is None else np.sort(order[keep])]

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


# A slab half-width h around coordinate q grows by this fraction of |q| + h,
# which covers the rounding of a computed distance and of the bounds q -/+ h.
_SLAB_ULPS = 8.0 * np.finfo(float).eps
# Sets larger than this are searched by chunks in `FlatIndex.minimize`.
_SCAN_ALL = 4096


class FlatIndex:
    """Every pair of several measurement sets in two sorted orders, in flat arrays.

    With S sets, segment s holds set s sorted by its weight-carrying
    coordinate a, and segment S + s the same set sorted by its other
    coordinate b (stable sorts).  Segment g occupies positions
    off[g]:off[g + 1] of `ab` (rows a and b), `idx` (index in the set) and
    `key` (g + 1j * the sort coordinate).  NumPy orders complex numbers by
    real part, then imaginary part, so `key` is sorted, and one
    `searchsorted` of keys g + 1j * x finds a place in every segment asked
    for, as a `searchsorted` of x in each segment would.

    `nearest` is the search kernel: the exact k nearest pairs for any number
    of queries, each in its own set and under its own weight.  `minimize` is
    the exact minimiser of a quadratic over one set.
    """

    def __init__(self, msets):
        self.msets = list(msets)
        self.n_sets = len(self.msets)
        sizes = [len(m) for m in self.msets]
        self.off = np.cumsum([0] + sizes + sizes)
        size = int(self.off[-1])
        # Indices in 32 bits: the store is built for every solver, and
        # its size is part of the program's peak memory.
        self.ab = np.empty((2, size))
        self.idx = np.empty(size, np.int32)
        self.key = np.empty(size, np.complex128)
        self._to_b = np.array([[0], [self.n_sets]])  # segment shift: a order to b order
        self._seeds = {}  # k -> `_seeding(k)`
        self._ids = np.arange(self.n_sets)
        for g in range(2 * self.n_sets):
            mset = self.msets[g % self.n_sets]
            ia = _W_COL[mset.kind]
            by_b = g >= self.n_sets
            lo, hi = self.off[g], self.off[g + 1]
            a, b = mset.pairs[:, ia], mset.pairs[:, 1 - ia]
            order = np.argsort(b if by_b else a, kind="stable")
            self.idx[lo:hi] = order
            self.ab[0, lo:hi] = a[order]
            self.ab[1, lo:hi] = b[order]
            self.key.real[lo:hi] = g
            self.key.imag[lo:hi] = self.ab[int(by_b), lo:hi]
            del order  # before the next argsort: the build's peak memory counts
        # Per set: its coordinates a and b in index order (views of its
        # pairs), and for a large set the chunk boxes of `minimize`.
        self.cols = [(m.pairs[:, _W_COL[m.kind]], m.pairs[:, 1 - _W_COL[m.kind]])
                      for m in self.msets]
        self._boxes = [self._chunk_boxes(s) if size > _SCAN_ALL else None
                       for s, size in enumerate(sizes)]

    def _chunk_boxes(self, s: int):
        """Set s's a segment cut into chunks of about sqrt(N) positions: the
        chunks' first positions (and the segment's end), their bounding
        boxes (rows: a first, a last, b min, b max), and the set's width
        (a range + b range)."""
        lo, hi = int(self.off[s]), int(self.off[s + 1])
        a, b = self.ab[:, lo:hi]
        first = np.arange(0, hi - lo, math.isqrt(hi - lo))
        last = np.append(first[1:], hi - lo) - 1
        box = np.array([a[first], a[last], np.minimum.reduceat(b, first),
                        np.maximum.reduceat(b, first)])
        return np.append(first, hi - lo) + lo, box, (a[-1] - a[0]) + (b.max() - b.min())

    def _seeding(self, k: int):
        """Per k: the offsets 0..2k-1 (a column), and each set's last first
        seed, its a segment's end - 2k."""
        if k not in self._seeds:
            self._seeds[k] = np.arange(2 * k)[:, None], self.off[1:self.n_sets + 1] - 2 * k
        return self._seeds[k]

    def nearest(self, seg, q, w, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest pairs to query j, (a, b) = q[:, j], in set seg[j]
        under weight w[j], for every j (each such set has at least k pairs):
        two (len(seg), k) arrays, each pick's index in its set and one of its
        positions, from which `ab` reads its a and b.  Row j lists query j's
        picks by distance, ties to the lowest index, as in `nearest_measurement`.
        """
        n = len(seg)
        seeds, last = self._seeding(k)
        # Seeds: the 2k pairs around each query's place in its a segment.
        keys = np.empty(n, np.complex128)
        keys.real, keys.imag = seg, q[0]
        begin, last = self.off[seg], last[seg]
        first = np.maximum(np.minimum(self.key.searchsorted(keys) - k, last), begin)
        # Per query: a, b and the coefficients 0.5 w, 0.5 / w of the two
        # terms of `weighted_pair_distance`.  With rows a and b at once, every
        # distance below is bit-identical to `weighted_pair_distance`.
        qc = np.concatenate([q.ravel(), 0.5 * w, 0.5 / w]).reshape(4, 1, n)
        d = self.ab.take(first + seeds, axis=1, mode="clip")
        d -= qc[:2]
        t = qc[2:] * d
        t *= d
        # r, the seeds' k-th smallest distance, bounds the k-th nearest one's
        # (a set of fewer than 2k pairs has repeated seeds: r = inf ranks it
        # whole).  Every pair within r lies in the slab |a - qa| <= sqrt(2 r / w)
        # of the a segment and in |b - qb| <= sqrt(2 r w) of the b segment,
        # each widened by a few ulps for the rounding of distances and bounds.
        r = np.sort(t[0] + t[1], axis=0)[k - 1]
        r[last < begin] = np.inf
        qc = qc.reshape(4, n)
        h = np.sqrt(r / qc[2:])
        h += _SLAB_ULPS * (np.abs(q) + h)
        # Both ends of both slabs in one search, each with side "left": just
        # above x, that is side "right" at x.
        keys = np.empty((2, 2, n), np.complex128)
        keys.real = seg + self._to_b
        keys.imag[0] = q - h
        keys.imag[1] = np.nextafter(q + h, np.inf)
        bounds = self.key.searchsorted(keys)
        count = bounds[1] - bounds[0]
        # Rank the smaller slab of each query, all slabs as one ragged array.
        lo = np.where(count[1] < count[0], bounds[0, 1], bounds[0, 0])
        count = np.minimum(count[0], count[1])
        start = count.cumsum()
        start -= count
        pos = (lo - start).repeat(count)
        pos += np.arange(len(pos))
        qc = qc.repeat(count, axis=1)
        d = self.ab.take(pos, axis=1)
        d -= qc[:2]
        t = qc[2:]
        t *= d
        t *= d
        d = t[0] + t[1]
        cand = self.idx.take(pos)
        # A slab holds at least k pairs, each of its set once: its picks are
        # its k first in the order by query, distance and index.
        order = np.lexsort((cand, d, np.arange(n).repeat(count)))
        order = order[start[:, None] + seeds[:k, 0]]
        return cand[order], pos[order]

    def nearest_to(self, s: int, pair, k: int, w: float) -> np.ndarray:
        """Indices of the k nearest pairs of set s (all of them, if it has
        fewer) to one pair in measurement order, under weight w: `nearest`
        for one query, nearest first."""
        mset = self.msets[s]
        q = np.asarray(pair, dtype=float)[::-1 if _W_COL[mset.kind] else 1].reshape(2, 1)
        return self.nearest(self._ids[s:s + 1], q, np.array([w]), min(k, len(mset)))[0][0]

    def minimize(self, s: int, cur: int, gram, g) -> int:
        """Index of the pair of set s that minimises the quadratic
        q(d) = d·G d - 2 g·d, with d its (a, b) minus that of pair cur,
        G = [[g_aa, g_ab], [g_ab, g_bb]] positive semidefinite (`gram` =
        (g_aa, g_ab, g_bb)) and g = (g_a, g_b), all Python floats.  Pair cur
        has q = 0, and ties go to the lowest index, so cur is returned when
        no pair has q < 0 and none with q = 0 has a lower index.

        A set of at most `_SCAN_ALL` pairs is scanned whole.  A larger one is
        scanned over the stretch of its a segment between the first and the
        last chunk whose bounding box may hold a pair with q <= 0: over a box,
        q is bounded below in G's eigenbasis, where it splits into two
        one-dimensional quadratics, each minimised over its coordinate's range
        on the box.  The bound gives way by more than the rounding of q, and
        of a negative rounded eigenvalue taken as 0.
        """
        a, b = self.cols[s]
        ac, bc = a.item(cur), b.item(cur)
        if self._boxes[s] is None:
            return int(_quadratic(a - ac, b - bc, gram, g).argmin())
        starts, box, width = self._boxes[s]
        g_aa, g_ab, g_bb = gram
        mean, rad = 0.5 * (g_aa + g_bb), math.hypot(0.5 * (g_aa - g_bb), g_ab)
        theta = 0.5 * math.atan2(2.0 * g_ab, g_aa - g_bb)
        c, sn = math.cos(theta), math.sin(theta)
        da, db = box[:2] - ac, box[2:] - bc  # rows: low, high
        lb = 0.0
        for lam, (ea, eb) in ((mean + rad, (c, sn)), (mean - rad, (-sn, c))):
            beta = ea * g[0] + eb * g[1]
            # the range of x = e·d over each box, from its corners
            lo = ea * da[int(ea < 0.0)] + eb * db[int(eb < 0.0)]
            hi = ea * da[int(ea >= 0.0)] + eb * db[int(eb >= 0.0)]
            if lam > 0.0:
                x = np.clip(beta / lam, lo, hi)
            else:  # linear in x
                x, lam = (hi if beta > 0.0 else lo), 0.0
            lb = lb + x * (lam * x - 2.0 * beta)
        slack = (64.0 * np.finfo(float).eps * ((abs(mean) + rad) * width * width
                 + (abs(g[0]) + abs(g[1])) * width) + max(rad - mean, 0.0) * width * width)
        sel = np.flatnonzero(lb <= slack)
        if not sel.size:
            return cur
        lo, hi = starts[sel[0]], starts[sel[-1] + 1]
        q = _quadratic(self.ab[0, lo:hi] - ac, self.ab[1, lo:hi] - bc, gram, g)
        m = q.min()
        best = int(self.idx[lo:hi][q == m].min())
        return best if m < 0.0 or (m == 0.0 and best < cur) else cur


def _quadratic(da, db, gram, g):
    """q = g_aa da² + 2 g_ab da db + g_bb db² - 2 (g_a da + g_b db), elementwise."""
    g_aa, g_ab, g_bb = gram
    q = g_aa * da
    q += 2.0 * g_ab * db
    q -= 2.0 * g[0]
    q *= da
    t = g_bb * db
    t -= 2.0 * g[1]
    t *= db
    q += t
    return q


class NearestNeighborIndex(FlatIndex):
    """The `FlatIndex` of one measurement set, with a default weight: exact
    weighted nearest and k-nearest queries under any weight, no rebuild.
    """

    def __init__(self, mset: MeasurementSet, weight: float):
        super().__init__([mset])
        self.mset = mset
        self.weight = float(weight)

    def query(self, pair, w: float | None = None) -> tuple[np.ndarray, int]:
        """Nearest stored pair and its index under weight w (default: the index weight)."""
        idx = int(self.nearest_to(0, pair, 1, self.weight if w is None else w)[0])
        return self.mset.pairs[idx].copy(), idx

    def k_nearest(self, pair, k: int, w: float | None = None) -> np.ndarray:
        """Indices of the k nearest pairs under weight w, sorted ascending;
        ties at the k-th distance take the lowest indices."""
        return np.sort(self.nearest_to(0, pair, k, self.weight if w is None else w))


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
    neighbors = mset.pairs[np.sort(flat.nearest_to(s, state_pair, k, current))]
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
