"""Data-driven MNA solver: the circuit state of each time step is the
Kirchhoff-feasible state nearest the measurement data.

Each iteration solves one linear system for the weighted projection onto the
constraints (one product with its inverse, kept while the system is unchanged),
then moves the data picks.  The iteration stops when the picks repeat, at a
fixed point of the two half-steps, and records the energy mismatch E, the
weighted squared distance between the two states over the data elements.
The weights are one vector in the order of the state's pair block, 0 at a
known element.  Every data element's set is one set of a `dataset.FlatIndex`,
whose search kernel serves the data half-step, the nearest picks and the
tangent rule.  A step warm-started at the last picks keeps them: a measured
pair is its own nearest pair.

Elements with a known model are not matched to data.  Each one is a
constraint only: it enters the Kirchhoff set as its tangent line
y = slope * x + offset and has no distance term, so the projection is the
closest Kirchhoff state in the data elements' metric and never reads a known
pair.  A linear model is its own constant tangent, and the data half-step
keeps its pair as the Kirchhoff state gives it; a nonlinear one (diode, MLCC)
is re-linearised at the Kirchhoff state in every data half-step, so the
iteration runs Newton's method on the known part, and its pairs count as
repeated once they move by at most `reference.NEWTON_RTOL` relative.

With the element responses eliminated, the projection is the symmetric
system [[D, Kᵀ], [K, -D]] on the MNA unknowns x = (phi, i_l, i_v) and their
multipliers, built from two stamps of `netlist.mna_stamp` (the reference
solver's): K of the known tangents' slopes, D of the data weights
(`KirchhoffSystem`).

As known elements carry no distance, a step's mismatch is a quadratic form
in the 2k coordinates p of its k data pairs, E(p) = |A p - pi0|²_C: C holds
the mismatch's coefficients, A = I - P with P the linear part of the
projection's map on data coordinates (`KirchhoffSystem.quadratic`, one
2k-column product with the kept inverse), and pi0 follows from the Kirchhoff
state of the iteration.  The data half-step is exact block-coordinate
descent on E from the current picks: each data element in turn takes the
pair of its set that minimises E with the others fixed
(`FlatIndex.minimize`), until k elements in a row keep their pick.  E never
rises, and the picks end at a minimum that no single element's move
improves, the global one when k = 1.

The consistent state at t0 is found by the same code: the held circuit
(`netlist.held_circuit`) is one more `KirchhoffSystem`, iterated with the data
of its G elements.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy  # noqa: F401  (unused here; perfbench/bench_trace.py wraps it)

from . import elements as em
from .dataset import (
    ElementBinding,
    FlatIndex,
    bindings_by_group,
    checked_weight,
    chord_weight,
    generate_measurements,  # noqa: F401  (unused here; perfbench/bench_trace.py wraps it)
    held_values,
    local_tangent_weight,
    nearest_measurement,  # noqa: F401  (unused here; perfbench/bench_trace.py wraps it)
)
from .netlist import CircuitGraph, IncidenceSet, build_incidence, held_circuit, mna_stamp, sources
from .reference import NEWTON_RTOL
from .state import CircuitState, Lift, TransientConfig, TransientTrace, march, release_held

log = logging.getLogger(__name__)

# The least scale of a feasibility residual.
SCALE_FLOOR = 1e-30
# The most data-state combinations `brute_force_timestep` enumerates.
BRUTE_FORCE_CAP = 10 ** 6
# Local-tangent weights: neighbours in the slope fit, and the clamp range
# relative to the element's reference weight.
TANGENT_K = 10
W_MIN_FACTOR = 1e-9
W_MAX_FACTOR = 1e9


class DDSolverError(RuntimeError):
    pass


@dataclass
class DDConfig:
    max_iters: int = 500
    weight_rule: str = "constant"  # or "local-tangent"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.weight_rule not in ("constant", "local-tangent"):
            raise ValueError(f"unknown weight rule {self.weight_rule!r}")


@dataclass
class DDStepTrace:
    """Per-time-step fixed-point diagnostics.

    `iterations` counts the step's Kirchhoff projections.  The step stops on
    "selection-fixed" when the selection repeats.  Under constant weights with
    no known-nonlinear element the mismatch is one quadratic in every
    iteration, and the first descent ended at a minimum no single element's
    move improves; the second iteration therefore keeps the picks without a
    descent and stops on "selection-fixed".  A circuit with no data element
    and no known-nonlinear element stops there after one projection, as its
    first Kirchhoff state is final.  "cap" means max_iters was reached.
    """

    em_history: list = field(default_factory=list)  # mismatch per iteration
    selected_indices: list = field(default_factory=list)  # dd-index tuple per iteration
    stop_reason: str = "cap"  # "selection-fixed" or "cap"
    feasibility_residual: float = np.nan
    # Kirchhoff right-hand sides solved in the step, the columns of the
    # reduced quadratic's map included
    solves: int = 0

    @property
    def iterations(self) -> int:
        return len(self.em_history)

    @property
    def final_mismatch(self) -> float:
        return self.em_history[-1]

    @property
    def converged(self) -> bool:
        return self.stop_reason != "cap"


@dataclass
class KnownTangent:
    """Tangent line response = slope * drive + offset of one known element.

    The drive is v for G and C elements and i for L elements.  Linear models
    keep (value, 0.0); nonlinear ones move with `relinearize`.
    """

    index: int  # column within the element's group
    model: object
    slope: float
    offset: float = 0.0

    def relinearize(self, x: float) -> tuple[float, float]:
        """Move the tangent to drive x; returns the model pair (x, f(x))."""
        f, self.slope = em.response_slope(self.model, x)
        self.offset = f - self.slope * x
        return x, f


@dataclass
class KirchhoffSystem:
    """The Kirchhoff projection of one circuit as two MNA stamps, with the
    inverse, response coefficients and reduced quadratic of its last alpha,
    weights and slopes, and a count of the right-hand sides it has solved.

    Its elements are the leading pairs of a state's pair block, with the
    leading weights: G, C, then L.  Each pair is a drive (v for G and C, i
    for L), the weight coordinate, and a response (i, q or psi); a known
    element's tangent gives response = slope * drive + offset.  The solution
    is z = (x, y): the MNA unknowns x = (phi, i_l, i_v) of the reference
    solver, and y = (eta, lam_l, lam_v), the multipliers of KCL, of the
    inductor law and of the source voltages.
    """

    inc: IncidenceSet
    known: dict  # group -> list[KnownTangent]

    def __post_init__(self):
        inc = self.inc
        nphi, n_l = inc.a_l.shape
        n_g, n_c = inc.a_g.shape[1], inc.a_c.shape[1]
        n_e = n_g + n_c + n_l
        self.n = nphi + n_l + inc.a_v.shape[1]  # the length of x and of y
        self._groups = (slice(0, n_g), slice(n_g, n_g + n_c), slice(n_g + n_c, n_e))
        first = {"G": 0, "C": n_g, "L": n_g + n_c}
        self.tangents = [t for group in "GCL" for t in self.known[group]]
        self._known = np.array([first[group] + t.index for group in "GCL"
                                for t in self.known[group]], np.intp)
        self._is_data = np.ones(n_e)
        self._is_data[self._known] = 0.0
        # where each element's drive and response sit in the flat pair block
        iw = np.repeat([0, 0, 1], [n_g, n_c, n_l])
        self.drive = 2 * np.arange(n_e) + iw
        self.response = self.drive + 1 - 2 * iw
        # the incidence without inductor and source columns, on which the
        # data weights' stamp is D
        self._weights_inc = IncidenceSet(inc.a_g, inc.a_c, np.zeros_like(inc.a_l),
                                         np.zeros_like(inc.a_v), inc.a_i)
        # The drives (A_g.T phi, A_c.T phi, i_l) of x, and the same map on y,
        # whose layout is x's: a known element's response moves with its
        # drive, a data element's with its row of the map on y.
        diff = np.vstack([inc.a_g.T, inc.a_c.T])
        drives = np.zeros((n_e, self.n))
        drives[:n_g + n_c, :nphi] = diff
        drives[n_g + n_c:, nphi:nphi + n_l] = np.eye(n_l)
        self._pick = np.hstack([drives * (1.0 - self._is_data[:, None]),
                                drives * self._is_data[:, None]])
        self._sign = np.where(iw == 1, 1.0, -1.0)  # of w in a data element's coefficient
        # The data elements, their drive rows, whether their distance scales
        # with alpha (C and L), and their coordinates in the flat pair block,
        # (drive, response) per element.
        self.data = np.flatnonzero(self._is_data)
        self._data_drives = drives[self.data]
        self._dynamic = self.data >= n_g
        self.data_coords = np.stack([self.drive, self.response], axis=1)[self.data].ravel()
        # A state from [z, A_g.T phi, A_c.T phi, responses]: the exact lift of x.
        phi, i_l, i_v, _, v_g, v_c, i_g, q_c, psi_l = np.split(
            np.arange(2 * self.n + n_g + n_c + n_e),
            np.cumsum([nphi, n_l, self.n - nphi - n_l, self.n, n_g, n_c, n_g, n_c]))
        self._lift = Lift(diff, CircuitState(phi, v_g, i_g, v_c, q_c, psi_l, i_l, i_v))
        # [key, inverse, response coefficients, quadratic or None], see _kept
        self._slot: list = [None]
        self.solves = 0  # right-hand sides solved, the quadratic's columns included

    def _slopes(self) -> np.ndarray:
        """The known tangents' slopes per element, 0 at data elements."""
        s = np.zeros(self._is_data.size)
        s[self._known] = [t.slope for t in self.tangents]
        return s

    def _data_weights(self, w: np.ndarray) -> np.ndarray:
        """The weights w per element, 0 at known elements."""
        return self._is_data * w[:self._is_data.size]

    def _responses(self, p: np.ndarray) -> np.ndarray:
        """The responses of the flat pair block p at data elements and the
        known tangents' offsets, per element."""
        r = p.take(self.response)
        r[self._known] = [t.offset for t in self.tangents]
        return r

    def matrix(self, alpha: float, w: np.ndarray) -> np.ndarray:
        """M = [[D, Kᵀ], [K, -D]] on z = (x, y) for weights w: K is the MNA
        stamp of the known tangents' slopes (0 at data elements), D =
        blockdiag(A_g W_g A_gᵀ + alpha A_c W_c A_cᵀ, alpha W_l, 0) that of the
        data weights (0 at known elements) alone.  The factor alpha weights C
        and L distances at their companion-conductance scale; it cancels in
        each element's nearest-neighbour search.  M is singular only when D
        and K share a null vector."""
        (g, c, l), s, wd, n = self._groups, self._slopes(), self._data_weights(w), self.n
        m = np.empty((2 * n, 2 * n))
        m[n:, :n] = mna_stamp(self.inc, alpha, s[g], s[c], s[l])
        m[:n, n:] = m[n:, :n].T
        m[:n, :n] = mna_stamp(self._weights_inc, alpha, wd[g], wd[c], -wd[l])
        m[n:, n:] = -m[:n, :n]
        return m

    def rhs(self, zx: CircuitState, alpha: float, rhs_c: np.ndarray, rhs_l: np.ndarray,
            v_src: np.ndarray, i_src: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Right-hand side (r_x, r_y) of the projection of data state zx; it
        reads the data elements' pairs of zx only.  r_x holds the weighted
        data drives, r_y the sources and the data responses and known
        offsets moved out of the constraints."""
        (g, c, l), p = self._groups, zx.pairs().reshape(-1)
        a_g, a_c = self.inc.a_g, self.inc.a_c
        f, r = self._data_weights(w) * p.take(self.drive), self._responses(p)
        return np.concatenate([
            a_g.dot(f[g]) + alpha * a_c.dot(f[c]), alpha * f[l], np.zeros(self.inc.a_v.shape[1]),
            self.inc.a_i.dot(i_src) + a_c.dot(rhs_c) - a_g.dot(r[g]) - alpha * a_c.dot(r[c]),
            alpha * r[l] - rhs_l, v_src])

    def response_coefficients(self, w: np.ndarray) -> np.ndarray:
        """Per element, what `state` multiplies its drive or multiplier by: a
        known element's slope, and -w (G, C) or w (L) at a data element."""
        return self._slopes() + self._sign * self._data_weights(w)

    def _kept(self, alpha: float, w: np.ndarray) -> list:
        """The slot of `matrix(alpha, w)` at the present slopes: its
        inverse, the response coefficients and the quadratic, None until
        built; renewed when alpha, a weight or a slope changes.  A solve is
        one product with the inverse, forward-accurate but not backward
        stable (Higham, "Accuracy and Stability of Numerical Algorithms",
        2nd ed. (2002), §14.1); `feasibility_residual` checks each step."""
        key = (alpha, w.tobytes(), tuple(t.slope for t in self.tangents))
        if self._slot[0] != key:
            try:
                inv = np.linalg.inv(self.matrix(alpha, w))
            except np.linalg.LinAlgError:
                raise DDSolverError("singular projection system") from None
            self._slot = [key, inv, self.response_coefficients(w), None]
        return self._slot

    def solve(self, zx: CircuitState, alpha: float, w: np.ndarray, b: np.ndarray) -> CircuitState:
        """The state of the solution of `matrix(alpha, w)` z = b for data
        state zx (b from `rhs`), with the kept inverse."""
        _, inv, coef, _ = self._kept(alpha, w)
        self.solves += 1
        return self.state(inv.dot(b), zx, coef)

    def quadratic(self, alpha: float, w: np.ndarray) -> tuple:
        """The mismatch of a projection at alpha and w as a quadratic form in
        the data coordinates p (`data_coords`, (drive, response) per data
        element); built on first use and kept with the inverse.

        The projection maps p to the Kirchhoff state's data coordinates
        pi0 + P p: a drive is its row of the map on x, a response p's own
        plus the weight times its row of the map on y, and x and y solve
        M z = b0 + B p, with B's column per coordinate read off `rhs`.  So P
        takes one product of the inverse with the 2k columns of B.  With
        A = I - P and C the mismatch's coefficients (0.5 w on a drive, 0.5 / w
        on a response, times alpha for C and L), the mismatch is
        |A p - pi0|²_C.  Returns
        (C A, Aᵀ C A, (g_aa, g_ab, g_bb) per data element), the last the
        element's 2 × 2 block of Aᵀ C A.
        """
        slot = self._kept(alpha, w)
        if slot[3] is None:
            d, w, sign = self._data_drives, w[self.data], self._sign[self.data]
            scale = np.where(self._dynamic, alpha, 1.0)
            k, n = d.shape
            b = np.zeros((2 * n, 2 * k))
            b[:n, 0::2] = d.T * (w * scale)
            b[n:, 1::2] = d.T * (sign * scale)
            z = slot[1].dot(b)
            a = np.empty((2 * k, 2 * k))
            a[0::2] = -d.dot(z[:n])
            a[1::2] = -(sign * w)[:, None] * d.dot(z[n:])
            a[0::2, 0::2] += np.eye(k)  # I's response entries cancel the responses' own p
            ca = np.column_stack([0.5 * w * scale, 0.5 * scale / w]).reshape(-1, 1) * a
            gram = a.T.dot(ca)
            i = np.arange(0, 2 * k, 2)
            blocks = np.stack([gram[i, i], gram[i, i + 1], gram[i + 1, i + 1]], axis=1)
            slot[3] = ca, gram, blocks.tolist()
            self.solves += 2 * k
        return slot[3]

    def state(self, z: np.ndarray, zx: CircuitState, coef: np.ndarray) -> CircuitState:
        """The circuit state in the solution z for data state zx, with coef
        the weights' `response_coefficients`: phi, i_l, i_v and the element
        voltages are the exact lift of x.  A data element's response is zx's
        minus w A_gᵀ eta (G), w A_cᵀ eta (C), or plus w lam_l (L); a known
        one's is slope * drive + offset."""
        return self._lift(z, self._responses(zx.pairs().reshape(-1)) + coef * self._pick.dot(z))


class DDSolver:
    """Data-driven solver bound to one circuit and its datasets."""

    def __init__(self, graph: CircuitGraph, inc: IncidenceSet,
                 bindings: list[ElementBinding], config: DDConfig | None = None):
        self.graph = graph
        self.inc = inc
        self.config = config or DDConfig()
        self.bindings = bindings_by_group(graph, bindings)
        self.nphi = graph.n - 1
        self.n_g, self.n_c, self.n_l, self.n_v = (graph.count(group) for group in "GCLV")
        # Per element, in the order of the state's pair block (G, C, then L):
        # name, weight and reference weight, D's diagonal: a data set's chord
        # slope, and 0 at a known element, which has no distance.
        elements = [(group, j, b) for group in "GCL" for j, b in enumerate(self.bindings[group])]
        self.names = [b.name for _, _, b in elements]
        self.weights = np.array([checked_weight(chord_weight(b.data)) if b.mode == "data"
                                 else 0.0 for _, _, b in elements])
        self.w_ref = self.weights.copy()

        # Known elements are constraints only: each enters the Kirchhoff
        # projection's stamp K as its tangent line and has no distance term,
        # so every Kirchhoff state satisfies them exactly and the projection
        # reads only the data pairs.  The data half-step keeps a known-linear
        # pair as it is and moves a nonlinear one by one Newton step, so a
        # step stops when the data indices repeat and the known-nonlinear
        # pairs settle.
        self.known: dict[str, list[KnownTangent]] = {group: [] for group in "GCL"}
        self._nonlinear = []  # (row, tangent)
        data = []  # measurement set per data row
        for row, (group, j, b) in enumerate(elements):
            if b.mode == "data":
                data.append(b.data)
            elif isinstance(b.model, em.LinearModel):
                self.known[group].append(KnownTangent(j, b.model, b.model.value))
            else:
                tangent = KnownTangent(j, b.model, 0.0)
                tangent.relinearize(0.0)
                self.known[group].append(tangent)
                self._nonlinear.append((row, tangent))
        # One flat index over every data set, set s for the s-th data row
        # (`system.data`).
        self.flat = FlatIndex(data)
        self.system = KirchhoffSystem(inc, self.known)
        # Where the data pairs' coordinates a (the drive) and b sit in the flat pair block.
        self._data_ab = self.system.data_coords.reshape(-1, 2).T
        self._last: tuple = (None, None)  # (picks, their (a, b)), see _pick_data
        self._rows: tuple = (None, None)  # (alpha, F), see _constraints

    # ------------------------------------------------------------------
    def assemble_projection_matrix(self, alpha: float) -> np.ndarray:
        """The projection's matrix [[D, Kᵀ], [K, -D]] (`KirchhoffSystem.matrix`);
        the solver inverts it through `KirchhoffSystem.solve`, not this call."""
        return self.system.matrix(alpha, self.weights)

    def assemble_projection_rhs(self, zx: CircuitState, alpha: float,
                                rhs_c: np.ndarray, rhs_l: np.ndarray,
                                v_src: np.ndarray, i_src: np.ndarray) -> np.ndarray:
        return self.system.rhs(zx, alpha, rhs_c, rhs_l, v_src, i_src, self.weights)

    def project_to_kirchhoff(self, zx: CircuitState, alpha: float,
                             rhs_c: np.ndarray, rhs_l: np.ndarray,
                             v_src: np.ndarray, i_src: np.ndarray) -> CircuitState:
        """Closest Kirchhoff-feasible state to zx in the data elements' weighted
        metric; the known elements are constraints only, and their pairs in zx
        are not read."""
        b = self.assemble_projection_rhs(zx, alpha, rhs_c, rhs_l, v_src, i_src)
        return self.system.solve(zx, alpha, self.weights, b)

    @functools.cached_property
    def _constraint_parts(self) -> tuple[np.ndarray, list]:
        """([F0, F1], blocks): F0 + alpha F1 is the `_constraints` at alpha,
        F0 holding the entries free of alpha and F1 the coefficients of
        alpha; blocks are the row slices of each block's residual and of its
        scale, in turn."""
        inc, n_c, n_l, n_v = self.inc, self.n_c, self.n_l, self.n_v
        pos = CircuitState.zeros(self.graph)
        pos.x[:] = np.arange(pos.x.size)
        col = {name: getattr(pos, name).astype(np.intp)
               for name in ("phi", "i_g", "q_c", "psi_l", "i_l", "i_v")}
        n_i = inc.a_i.shape[1]
        col["i_src"], col["rhs_c"], col["rhs_l"], col["v_src"] = np.split(
            pos.x.size + np.arange(n_i + n_c + n_l + n_v), np.cumsum([n_i, n_c, n_l]))

        def rows(*parts):
            """Rows from (column name, block, 0 for F0 or 1 for F1) parts."""
            m = np.zeros((2, len(parts[0][1]), pos.x.size + n_i + n_c + n_l + n_v))
            for name, block, k in parts:
                m[k][:, col[name]] = block
            return m

        eye_l, eye_v = np.eye(n_l), np.eye(n_v)
        f = [np.concatenate(group, axis=1) for group in (
            [rows(("i_g", inc.a_g, 0), ("q_c", inc.a_c, 1), ("i_l", inc.a_l, 0),
                  ("i_v", inc.a_v, 0), ("i_src", -inc.a_i, 0), ("rhs_c", -inc.a_c, 0))],
            [rows(("i_g", np.eye(self.n_g), 0)), rows(("q_c", np.eye(n_c), 1)),
             rows(("i_v", eye_v, 0)), rows(("i_src", np.eye(n_i), 0))],
            [rows(("phi", inc.a_l.T, 0), ("psi_l", -eye_l, 1), ("rhs_l", eye_l, 0))],
            [rows(("phi", inc.a_l.T, 0))],
            [rows(("phi", inc.a_v.T, 0), ("v_src", -eye_v, 0))],
            [rows(("v_src", eye_v, 0))])]
        bounds = np.cumsum([0] + [part.shape[1] for part in f]).tolist()
        return np.concatenate(f, axis=1), [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def _constraints(self, alpha: float) -> np.ndarray:
        """F for `feasibility_residual` at alpha, kept for the last alpha.

        The product of F with [x, i_src, rhs_c, rhs_l, v_src], x a state's
        vector, stacks per block its residual rows, then the rows whose
        largest magnitude is its scale (`_constraint_parts`): KCL, A_g i_g + alpha A_c
        q_c + A_l i_l + A_v i_v - A_i i_src - A_c rhs_c, on i_g, alpha q_c,
        i_v and i_src; the inductor law, A_l.T phi - alpha psi_l + rhs_l, on
        A_l.T phi; the source voltages, A_v.T phi - v_src, on v_src."""
        if self._rows[0] != alpha:
            f0, f1 = self._constraint_parts[0]
            self._rows = (alpha, f0 + alpha * f1)
        return self._rows[1]

    def feasibility_residual(self, state: CircuitState, alpha: float,
                             rhs_c: np.ndarray, rhs_l: np.ndarray,
                             v_src: np.ndarray, i_src: np.ndarray) -> float:
        """Max relative residual over three time-discrete constraint blocks:
        KCL, the inductor law and the source voltages, each over its scale,
        one product with `_constraints`.  The element voltages v_g and v_c
        need no block: a Kirchhoff state lifts them from phi as A_g.T phi and
        A_c.T phi, so they hold exactly."""
        r = np.abs(self._constraints(alpha).dot(
            np.concatenate([state.x, i_src, rhs_c, rhs_l, v_src]))).tolist()
        kcl, kcl_scale, law, law_scale, volt, volt_scale = (
            r[rows] for rows in self._constraint_parts[1])
        return max(max(kcl, default=0.0) / max([SCALE_FLOOR, *kcl_scale]),
                   max(law, default=0.0) / max([SCALE_FLOOR, *law_scale]),
                   max(volt, default=0.0) / max([1.0, *volt_scale]))

    # ------------------------------------------------------------------
    def project_to_data(self, zo: CircuitState) -> tuple[CircuitState, tuple]:
        """Independent per-element projection onto data / known models.

        Data elements take their nearest measured pair, one search of the
        flat index per element.  Known linear elements keep the Kirchhoff
        state's pair, which lies on their line; known nonlinear ones take the
        model point at the Kirchhoff state's drive coordinate and are
        re-linearised there.  The selection is the data indices, then the
        known-nonlinear pairs in element order.
        """
        zx, known = self._move_known(zo)
        idx = self._pick_data(zx.pairs())
        return zx, (tuple(idx.tolist()), known)

    def _move_known(self, zo: CircuitState) -> tuple[CircuitState, tuple]:
        """zo with every known-nonlinear element at its model point at zo's
        drive, and re-linearised there; returns it and those pairs."""
        zx = zo.copy()
        p = zx.pairs()
        known = []
        for row, tangent in self._nonlinear:
            p[row] = pair = tangent.relinearize(float(p[row, 0]))
            known.append(pair)
        return zx, tuple(known)

    def _pick_data(self, p: np.ndarray) -> np.ndarray:
        """Move every data element's pair in the pair block p to its nearest
        measured pair; returns the picks' indices in their sets, and keeps
        them with their (a, b) as the last picks."""
        w, picks = self.weights.tolist(), []
        for s, row in enumerate(self.system.data.tolist()):
            i = self.flat.nearest(s, p[row], w[row])[0]
            p[row] = self.flat.msets[s].pairs[i]
            picks.append(i)
        self._last = np.array(picks, np.intp), p.reshape(-1)[self._data_ab]
        return self._last[0]

    def energy_mismatch(self, zo: CircuitState, zx: CircuitState,
                        alpha: float = 1.0) -> float:
        """The mismatch E of two states: the weighted squared distance summed
        over the data elements, 0.5 w da da + 0.5 / w db db with a the drive
        and b the response, times alpha for C and L elements, as in
        project_to_kirchhoff's metric.  Known elements carry no distance, so
        this is the E = |A p - pi0|²_C of `KirchhoffSystem.quadratic` that the
        data half-step descends on.  The terms are added left to right
        (np.sum adds pairwise, and the builtin sum compensates from Python
        3.12 on), so a recorded mismatch (`DDStepTrace.em_history`) has the
        same bits on every platform; no stop test compares mismatches.
        """
        ab = self._data_ab
        d = zo.pairs().reshape(-1)[ab] - zx.pairs().reshape(-1)[ab]
        w = self.weights[self.system.data]
        t = 0.5 * w * d[0] * d[0] + 0.5 / w * d[1] * d[1]
        t[self.system._dynamic] *= alpha
        return functools.reduce(operator.add, t.tolist(), 0.0)

    def _update_tangent_weights(self, zx: CircuitState) -> None:
        p, w, ref = zx.pairs(), self.weights.tolist(), self.w_ref.tolist()
        for s, row in enumerate(self.system.data.tolist()):
            self.weights[row] = local_tangent_weight(
                self.flat, s, p[row], TANGENT_K, w[row],
                w_min=W_MIN_FACTOR * ref[row], w_max=W_MAX_FACTOR * ref[row])

    # ------------------------------------------------------------------
    def solve_timestep(self, zx_seed: CircuitState, alpha: float, rhs_c: np.ndarray,
                       rhs_l: np.ndarray, v_src: np.ndarray, i_src: np.ndarray
                       ) -> tuple[CircuitState, CircuitState, DDStepTrace]:
        """Iterate the Kirchhoff and data half-steps to a fixed point for one
        time step, from the data pairs nearest the warm start zx_seed.

        Each iteration moves the local-tangent weights (under that rule),
        projects the data state onto the Kirchhoff set and descends on the
        step's reduced quadratic (`_data_step`).  Returns the last Kirchhoff
        state, the data state the next step starts from, and the trace.
        """
        args, solves = (alpha, rhs_c, rhs_l, v_src, i_src), self.system.solves
        zo, zx, trace = self._iterate(
            self.system, alpha, lambda zx: self.project_to_kirchhoff(zx, *args), zx_seed,
            self.config.weight_rule == "local-tangent")
        trace.solves = self.system.solves - solves
        trace.feasibility_residual = self.feasibility_residual(zo, *args)
        return zo, zx, trace

    def _iterate(self, system: KirchhoffSystem, alpha: float, project, zx: CircuitState,
                 tangent_weights: bool) -> tuple[CircuitState, CircuitState, DDStepTrace]:
        """Iterate `project` (data state -> Kirchhoff state of `system`) and
        the data half-step on the data elements of `system` until a stop test
        fires."""
        trace = DDStepTrace()
        zx = zx.copy()
        # A pair at distance 0 is the only nearest one (a set holds no
        # duplicates), so a data state at the last picks keeps them.
        if not np.array_equal(zx.pairs().reshape(-1)[self._data_ab], self._last[1]):
            self._pick_data(zx.pairs())
        picks, ab = self._last  # ab: the picks' (a, b), one column each
        zx.pairs().reshape(-1)[self._data_ab] = ab
        # Without moving weights or known-nonlinear tangents, E is the same
        # quadratic in every iteration, and the picks of a descent are a
        # minimum of it: the next descent keeps them.
        fixed = not tangent_weights and not self._nonlinear
        final = not (self._nonlinear or system.data.size)  # the first state is final
        prev_sel = None
        for _ in range(self.config.max_iters):
            if tangent_weights:
                self._update_tangent_weights(zx)
            zo = project(zx)
            zx, sel, mismatch = self._data_step(system, alpha, zo, picks, ab,
                                                descend=not fixed or prev_sel is None)
            trace.em_history.append(mismatch)
            trace.selected_indices.append(sel[0])
            if final or (prev_sel is not None and sel[0] == prev_sel[0]
                         and _settled(sel[1], prev_sel[1])):
                trace.stop_reason = "selection-fixed"
                break
            prev_sel = sel
        return zo, zx, trace

    def _data_step(self, system: KirchhoffSystem, alpha: float, zo: CircuitState,
                   picks: np.ndarray, ab: np.ndarray,
                   descend: bool = True) -> tuple[CircuitState, tuple, float]:
        """The data half-step from zo, the Kirchhoff state of `system` for
        the data state of the picks `picks` (index per data set) at `ab`
        (their (a, b) per column); moves both in place, unless `descend` is
        false and the picks are known to be a minimum of E.

        The data state is zo with the known-nonlinear elements moved to
        their model and the picks at the data elements; its mismatch to zo
        is E at the picks zo came from, and is returned.  Then the data
        elements of `system` descend on E; they are the leading data sets,
        as G elements come first.  With the residual r = zo's data
        coordinates minus the picks', and u = Aᵀ C r, a move d of element
        e's pick changes E by d·(Aᵀ C A)_ee d - 2 u_e·d.  Returns the moved
        data state, the selection (the data indices, then the
        known-nonlinear pairs) and the mismatch.
        """
        zx, known = self._move_known(zo)
        p = zx.pairs()
        p.reshape(-1)[self._data_ab] = ab
        mismatch = self.energy_mismatch(zo, zx, alpha)
        if not descend:
            return zx, (tuple(picks.tolist()), known), mismatch
        ca, gram, blocks = system.quadratic(alpha, self.weights)
        u = ca.T.dot(zo.pairs().reshape(-1)[system.data_coords]
                     - zx.pairs().reshape(-1)[system.data_coords])
        kept, e, k = 0, 0, system.data.size
        for _ in range(k * self.config.max_iters):  # a guard; the descent ends
            if kept == k:
                break
            i = 2 * e
            new = self.flat.minimize(e, ab[:, e].tolist(), blocks[e], u[i:i + 2].tolist())[0]
            kept += 1
            if new != picks[e]:
                a, b = self.flat.cols[e]
                d = np.array([a[new], b[new]]) - ab[:, e]
                u -= gram[:, i:i + 2].dot(d)
                ab[:, e] = a[new], b[new]
                picks[e] = new
                kept = 1  # a block at its own minimum
            e = (e + 1) % k
        p.reshape(-1)[self._data_ab] = ab
        return zx, (tuple(picks.tolist()), known), mismatch

    # ------------------------------------------------------------------
    def seed_state(self, q_c0: np.ndarray, psi_l0: np.ndarray) -> CircuitState:
        """Data state nearest the zero pair per element (model origin if known)."""
        zx = CircuitState.zeros(self.graph)
        self._pick_data(zx.pairs())
        zx.q_c, zx.psi_l = q_c0, psi_l0  # written into zx.x
        return zx

    def initial_state(self, t0: float, q_c0: np.ndarray, psi_l0: np.ndarray
                      ) -> tuple[CircuitState, CircuitState]:
        """Data-driven consistent state at t0 with charges and fluxes pinned.

        The held circuit (`netlist.held_circuit` at `dataset.held_values`) is
        iterated as a step is, with the data of its G elements.  Returns
        (accepted state, final data state); the latter warm-starts the first
        step.
        """
        v_c0, i_l0 = held_values(self.bindings, q_c0, psi_l0)
        graph = held_circuit(self.graph, v_c0, i_l0)
        held = KirchhoffSystem(build_incidence(graph), {"G": self.known["G"], "C": [], "L": []})
        v_src, i_src = sources(graph, t0)
        none, w = np.zeros(0), self.weights  # the held circuit has no C or L

        def project(zx):
            # The projection reads zx's G data pairs only, as the held circuit has them.
            b = held.rhs(zx, 0.0, none, none, v_src, i_src, w)
            return release_held(held.solve(zx, 0.0, w, b), self.inc.a_c, q_c0, psi_l0, i_l0)

        state, zx, _ = self._iterate(held, 0.0, project, self.seed_state(q_c0, psi_l0), False)
        zx.q_c, zx.psi_l = q_c0, psi_l0
        return state, zx


def _settled(pairs, prev) -> bool:
    """Whether known-nonlinear pairs repeat prev's: every coordinate within
    NEWTON_RTOL, relative, of prev's."""
    return prev is not None and all(
        abs(x - y) <= NEWTON_RTOL * max(abs(x), abs(y))
        for pair, last in zip(pairs, prev) for x, y in zip(pair, last))


def run_transient_dd(graph: CircuitGraph, inc: IncidenceSet,
                     bindings: list[ElementBinding], config: TransientConfig,
                     dd_config: DDConfig | None = None) -> TransientTrace:
    """March the data-driven solver, warm-starting each step from the last data state."""
    solver = DDSolver(graph, inc, bindings, dd_config)
    state0, zx0 = solver.initial_state(config.t0, *config.init.resolve(graph))

    def step(zx, t, alpha, rhs_c, rhs_l):
        zo, zx, trace = solver.solve_timestep(zx, alpha, rhs_c, rhs_l, *sources(graph, t))
        return zo.x, zx, trace.iterations, trace.converged, trace

    trace = march(graph, config, state0, zx0, step)
    capped = int(np.count_nonzero(~trace.converged))
    if capped:
        log.warning("%d of %d data-driven steps stopped at max_iters=%d",
                    capped, config.steps, solver.config.max_iters)
    return trace


def brute_force_timestep(solver: DDSolver, alpha: float,
                         rhs_c: np.ndarray, rhs_l: np.ndarray,
                         v_src: np.ndarray, i_src: np.ndarray):
    """Enumerate all data-state combinations; exact oracle for the double minimization.

    Known elements are constraints of the Kirchhoff projection with no
    distance term, so with linear models one Kirchhoff solve per enumerated
    tuple is exact.  With nonlinear models the solve is repeated until their
    pairs settle as a step's do (a Newton iteration, at most 200 passes).
    Returns (best K-feasible state, best index tuple, global minimum
    mismatch).
    """
    dd_elems = list(zip(solver.system.data.tolist(), solver.flat.msets))
    sizes = [len(mset) for _, mset in dd_elems]
    n_tuples = int(np.prod(sizes)) if sizes else 1
    if n_tuples > BRUTE_FORCE_CAP:
        raise DDSolverError(f"brute force cap exceeded: {n_tuples} > {BRUTE_FORCE_CAP}")

    best = None
    for combo in itertools.product(*(range(s) for s in sizes)):
        zx = CircuitState.zeros(solver.graph)
        for (row, mset), idx in zip(dd_elems, combo):
            zx.pairs()[row] = mset.pairs[idx]
        last = None  # the known-nonlinear pairs of the last pass
        for _ in range(200 if solver._nonlinear else 1):
            zo = solver.project_to_kirchhoff(zx, alpha, rhs_c, rhs_l, v_src, i_src)
            zx, pairs = solver._move_known(zo)
            for (row, mset), idx in zip(dd_elems, combo):
                zx.pairs()[row] = mset.pairs[idx]  # tuple stays frozen
            if _settled(pairs, last):
                break
            last = pairs
        mismatch = solver.energy_mismatch(zo, zx, alpha)
        if best is None or mismatch < best[2]:
            best = (zo, combo, mismatch)
    return best
