"""Data-driven MNA solver: alternating closest-point projections between the
Kirchhoff-feasible affine set of circuit states and the measurement set.

Each solver iteration solves one saddle-point linear system (projection onto
the constraints, unknowns extended by Lagrange multipliers) followed by
independent per-element nearest-neighbor projections onto the data.  The
iteration is a fixed point monitored through the energy mismatch, the
weighted squared distance between the two projected states.

Elements with a known model are not matched to data.  Each one is folded into
the constraints as its tangent line y = slope * x + offset.  A linear model is
its own constant tangent; a nonlinear one (diode, MLCC) is re-linearised at
the Kirchhoff state in every data half-step, so the alternation runs Newton's
method on the known part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import elements as em
from .dataset import (
    ElementBinding,
    ElementWeight,
    NearestNeighborIndex,
    default_weight,
    generate_measurements,  # noqa: F401  (unused here; perfbench/bench_trace.py wraps it)
    local_tangent_weight,
    nearest_measurement,
    project_known_linear,
    weighted_pair_distance,
)
from .netlist import CircuitGraph, IncidenceSet
from .state import CircuitState, TransientConfig, TransientTrace, march

MISMATCH_FLOOR = 1e-30
# Local-tangent weights: neighbours in the slope fit, and the clamp range
# relative to the element's reference weight.
TANGENT_K = 10
W_MIN_FACTOR = 1e-9
W_MAX_FACTOR = 1e9


class DDSolverError(RuntimeError):
    pass


@dataclass
class DDConfig:
    tol_em: float = 1e-10
    max_iters: int = 500
    weight_rule: str = "constant"  # or "local-tangent"

    def __post_init__(self):
        if not self.tol_em > 0.0:
            raise ValueError("tol_em must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.weight_rule not in ("constant", "local-tangent"):
            raise ValueError(f"unknown weight rule {self.weight_rule!r}")


@dataclass
class DDStepTrace:
    """Per-time-step fixed-point diagnostics."""

    iterations: int = 0
    em_history: list = field(default_factory=list)
    selected_indices: list = field(default_factory=list)  # dd-index tuple per iteration
    converged: bool = True
    final_mismatch: float = np.nan
    feasibility_residual: float = np.nan


@dataclass
class WeightSet:
    """Per-group weighting factors aligned with incidence column order."""

    g: np.ndarray
    c: np.ndarray
    l: np.ndarray


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

    def relinearize(self, x: float) -> np.ndarray:
        """Move the tangent to drive x; returns the model pair (x, f(x))."""
        if isinstance(self.model, em.ShockleyDiodeModel):
            f = em.conductor_current(self.model, x)
            self.slope = em.conductor_conductance(self.model, x)
        else:
            f = em.capacitor_charge(self.model, x)
            self.slope = em.capacitor_capacitance(self.model, x)
        self.offset = f - self.slope * x
        return np.array([x, f])


class DDSolver:
    """Alternating-projection solver bound to one circuit and its datasets."""

    def __init__(self, graph: CircuitGraph, inc: IncidenceSet,
                 bindings: list[ElementBinding], config: DDConfig | None = None):
        self.graph = graph
        self.inc = inc
        self.config = config or DDConfig()
        by_name = {b.name: b for b in bindings}
        self.bindings: dict[str, list[ElementBinding]] = {}
        for group in "GCL":
            self.bindings[group] = []
            for e in graph.groups[group]:
                b = by_name.get(e.name)
                if b is None:
                    raise ValueError(f"no binding for element {e.name}")
                if b.group != group:
                    raise ValueError(f"binding group mismatch for {e.name}")
                self.bindings[group].append(b)

        self.w_ref: dict[str, float] = {}
        self.weights: dict[str, ElementWeight] = {}
        self.nn: dict[str, NearestNeighborIndex] = {}
        # Known elements are hard constraints of the Kirchhoff projection,
        # each folded as its tangent line with its own multiplier, so every
        # Kirchhoff state satisfies them exactly.  That does not end a step
        # in one solve: the data half-step still moves the known pairs (by
        # rounding for linear models, by one Newton step for nonlinear ones),
        # and a step stops only when the data indices and the known pairs
        # repeat bit for bit, or on the mismatch floor or the stall test.
        self.known: dict[str, list[KnownTangent]] = {group: [] for group in "GCL"}
        for group in "GCL":
            for j, b in enumerate(self.bindings[group]):
                w = default_weight(b)
                self.w_ref[b.name] = w.value
                self.weights[b.name] = w
                if b.mode == "data":
                    self.nn[b.name] = NearestNeighborIndex(b.data, w.value)
                elif isinstance(b.model, em.LinearModel):
                    self.known[group].append(KnownTangent(j, b.model, b.model.value))
                else:
                    tangent = KnownTangent(j, b.model, 0.0)
                    tangent.relinearize(0.0)
                    self.known[group].append(tangent)
        self._known_by_name = {self.bindings[group][t.index].name: t
                               for group in "GCL" for t in self.known[group]}

        self.v_waves = [e.waveform for e in graph.groups["V"]]
        self.i_waves = [e.waveform for e in graph.groups["I"]]
        self.nphi = graph.n - 1
        self.n_g = graph.count("G")
        self.n_c = graph.count("C")
        self.n_l = graph.count("L")
        self.n_v = graph.count("V")
        self._lu_slot: tuple | None = None  # (key, LU factors) of the last system

    # ------------------------------------------------------------------
    def set_weight(self, name: str, value: float) -> None:
        """Override one element's metric coefficient (rebuilds its NN index)."""
        self.weights[name] = ElementWeight(float(value))
        self.w_ref[name] = float(value)
        if name in self.nn:
            self.nn[name] = NearestNeighborIndex(self.nn[name].mset, float(value))

    def sources(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([em.source_value(w, t) for w in self.v_waves]),
                np.array([em.source_value(w, t) for w in self.i_waves]))

    def weight_arrays(self) -> WeightSet:
        return WeightSet(
            g=np.array([self.weights[b.name].value for b in self.bindings["G"]]),
            c=np.array([self.weights[b.name].value for b in self.bindings["C"]]),
            l=np.array([self.weights[b.name].value for b in self.bindings["L"]]),
        )

    def _weights_key(self) -> tuple:
        return tuple(sorted((k, w.value) for k, w in self.weights.items()))

    def _slopes_key(self) -> tuple:
        return tuple(t.slope for group in "GCL" for t in self.known[group])

    # ------------------------------------------------------------------
    def layout(self) -> dict[str, slice]:
        sizes = [("phi", self.nphi), ("i_g", self.n_g), ("q_c", self.n_c),
                 ("i_l", self.n_l), ("psi", self.n_l), ("i_v", self.n_v),
                 ("eta", self.nphi), ("lam_l", self.n_l), ("lam_v", self.n_v),
                 ("mu_g", len(self.known["G"])),
                 ("mu_c", len(self.known["C"])),
                 ("mu_l", len(self.known["L"]))]
        out, pos = {}, 0
        for name, sz in sizes:
            out[name] = slice(pos, pos + sz)
            pos += sz
        out["total"] = pos
        return out

    def assemble_projection_matrix(self, alpha: float,
                                   weights: WeightSet | None = None) -> np.ndarray:
        """Stationarity-plus-constraints system matrix for one projection solve."""
        w = weights or self.weight_arrays()
        lay = self.layout()
        inc = self.inc
        m = np.zeros((lay["total"], lay["total"]))

        def blk(row, col):
            return (lay[row], lay[col])

        # Dynamic (C, L) element distances carry an extra factor alpha: the
        # time-discrete constraints couple charge/flux rates, so the metric
        # must weight those elements at their companion-conductance scale or
        # the two projection sets become nearly parallel and the fixed-point
        # iteration stalls.  The factor cancels inside each element's nearest
        # neighbor search; it only rebalances elements against each other.
        # The q and psi stationarity rows below are divided through by alpha.
        m[blk("phi", "phi")] = (inc.a_g * w.g) @ inc.a_g.T \
            + alpha * (inc.a_c * w.c) @ inc.a_c.T
        m[blk("phi", "lam_l")] = -inc.a_l
        m[blk("phi", "lam_v")] = -inc.a_v
        m[blk("i_g", "i_g")] = np.diag(1.0 / w.g)
        m[blk("i_g", "eta")] = -inc.a_g.T
        m[blk("q_c", "q_c")] = np.diag(1.0 / w.c)
        m[blk("q_c", "eta")] = -inc.a_c.T
        m[blk("i_l", "i_l")] = alpha * np.diag(w.l)
        m[blk("i_l", "eta")] = -inc.a_l.T
        m[blk("psi", "psi")] = np.diag(1.0 / w.l)
        m[blk("psi", "lam_l")] = np.eye(self.n_l)
        m[blk("i_v", "eta")] = -inc.a_v.T
        m[blk("eta", "i_g")] = inc.a_g
        m[blk("eta", "q_c")] = alpha * inc.a_c
        m[blk("eta", "i_l")] = inc.a_l
        m[blk("eta", "i_v")] = inc.a_v
        m[blk("lam_l", "phi")] = inc.a_l.T
        m[blk("lam_l", "psi")] = -alpha * np.eye(self.n_l)
        m[blk("lam_v", "phi")] = inc.a_v.T

        self._fold_known(m, "G", lay["mu_g"], lay["i_g"], lay["phi"], inc.a_g)
        self._fold_known(m, "C", lay["mu_c"], lay["q_c"], lay["phi"], inc.a_c)
        self._fold_known(m, "L", lay["mu_l"], lay["psi"], lay["i_l"], np.eye(self.n_l))
        return m

    def _fold_known(self, m: np.ndarray, group: str, mu: slice, response: slice,
                    drive: slice, drive_map: np.ndarray) -> None:
        """Fold the group's known tangents into m as constraint rows.

        Row k of `mu` reads response_j - slope * (drive_map[:, j] . drive) =
        offset; the offset goes on the right-hand side.  The multiplier
        columns carry the transposed entries with flipped sign.
        """
        for k, t in enumerate(self.known[group]):
            r = mu.start + k
            col = t.slope * drive_map[:, t.index]
            m[r, response.start + t.index] = 1.0
            m[r, drive] = -col
            m[response.start + t.index, r] = -1.0
            m[drive, r] = col

    def assemble_projection_rhs(self, zx: CircuitState, alpha: float,
                                rhs_c: np.ndarray, rhs_l: np.ndarray,
                                v_src: np.ndarray, i_src: np.ndarray,
                                weights: WeightSet | None = None) -> np.ndarray:
        w = weights or self.weight_arrays()
        lay = self.layout()
        inc = self.inc
        b = np.zeros(lay["total"])
        b[lay["phi"]] = inc.a_g @ (w.g * zx.v_g) + alpha * (inc.a_c @ (w.c * zx.v_c))
        b[lay["i_g"]] = zx.i_g / w.g
        b[lay["q_c"]] = zx.q_c / w.c
        b[lay["i_l"]] = alpha * (w.l * zx.i_l)
        b[lay["psi"]] = zx.psi_l / w.l
        b[lay["eta"]] = inc.a_i @ i_src + inc.a_c @ rhs_c
        b[lay["lam_l"]] = -rhs_l
        b[lay["lam_v"]] = v_src
        for group in "GCL":
            b[lay["mu_" + group.lower()]] = [t.offset for t in self.known[group]]
        return b

    def _factor(self, key: tuple, assemble):
        """LU factors of assemble(), refactored only when key changes."""
        if self._lu_slot is None or self._lu_slot[0] != key:
            try:
                lu = scipy.linalg.lu_factor(assemble())
            except scipy.linalg.LinAlgError as exc:
                raise DDSolverError(f"singular projection system: {exc}") from None
            self._lu_slot = (key, lu)
        return self._lu_slot[1]

    def project_to_kirchhoff(self, zx: CircuitState, alpha: float,
                             rhs_c: np.ndarray, rhs_l: np.ndarray,
                             v_src: np.ndarray, i_src: np.ndarray) -> CircuitState:
        """Closest Kirchhoff-feasible state to zx in the weighted metric."""
        b = self.assemble_projection_rhs(zx, alpha, rhs_c, rhs_l, v_src, i_src)
        lu = self._factor((alpha, self._weights_key(), self._slopes_key()),
                          lambda: self.assemble_projection_matrix(alpha))
        z = scipy.linalg.lu_solve(lu, b)
        lay = self.layout()
        phi = z[lay["phi"]]
        return CircuitState(
            phi=phi,
            v_g=self.inc.a_g.T @ phi,
            i_g=z[lay["i_g"]],
            v_c=self.inc.a_c.T @ phi,
            q_c=z[lay["q_c"]],
            psi_l=z[lay["psi"]],
            i_l=z[lay["i_l"]],
            i_v=z[lay["i_v"]],
        )

    def feasibility_residual(self, state: CircuitState, alpha: float,
                             rhs_c: np.ndarray, rhs_l: np.ndarray,
                             v_src: np.ndarray, i_src: np.ndarray) -> float:
        """Max relative residual over the five time-discrete constraint blocks."""
        inc = self.inc
        kcl = inc.a_g @ state.i_g + alpha * (inc.a_c @ state.q_c) + inc.a_l @ state.i_l \
            + inc.a_v @ state.i_v - inc.a_i @ i_src - inc.a_c @ rhs_c
        kcl_scale = max(MISMATCH_FLOOR,
                        np.abs(state.i_g).max(initial=0.0),
                        alpha * np.abs(state.q_c).max(initial=0.0),
                        np.abs(state.i_v).max(initial=0.0),
                        np.abs(i_src).max(initial=0.0))
        res = np.abs(kcl).max(initial=0.0) / kcl_scale
        for a_x, v_x in ((inc.a_g, state.v_g), (inc.a_c, state.v_c)):
            if a_x.shape[1]:
                gap = np.abs(a_x.T @ state.phi - v_x).max()
                res = max(res, gap / max(np.abs(v_x).max(), MISMATCH_FLOOR))
        if self.n_l:
            gap = np.abs(inc.a_l.T @ state.phi - (alpha * state.psi_l - rhs_l)).max()
            scale = max(np.abs(inc.a_l.T @ state.phi).max(), MISMATCH_FLOOR)
            res = max(res, gap / scale)
        if self.n_v:
            gap = np.abs(inc.a_v.T @ state.phi - v_src).max()
            res = max(res, gap / max(np.abs(v_src).max(), 1.0))
        return res

    # ------------------------------------------------------------------
    def project_to_data(self, zo: CircuitState) -> tuple[CircuitState, tuple]:
        """Independent per-element projection onto data / known models.

        Data elements take their nearest measured pair.  Known linear
        elements take the closest point on their line; known nonlinear ones
        take the model point at the Kirchhoff state's drive coordinate and
        are re-linearised there.
        """
        zx = zo.copy()
        dd_indices = []
        known_pairs = []
        for group in "GCL":
            for j, b in enumerate(self.bindings[group]):
                w = self.weights[b.name]
                pair = zo.pair(group, j)
                if b.mode == "data":
                    p, idx = self.nn[b.name].query(pair, w=w.value)
                    dd_indices.append(idx)
                elif isinstance(b.model, em.LinearModel):
                    p = project_known_linear(b.model.value, pair, kind=group)
                    known_pairs.append(p)
                else:
                    p = self._known_by_name[b.name].relinearize(float(pair[0]))
                    known_pairs.append(p)
                zx.set_pair(group, j, p)
        return zx, (tuple(dd_indices), tuple(map(tuple, known_pairs)))

    def energy_mismatch(self, zo: CircuitState, zx: CircuitState,
                        alpha: float = 1.0) -> float:
        """Weighted squared distance between two states, summed over elements.

        Dynamic elements are scaled by alpha, matching the metric used by
        project_to_kirchhoff.
        """
        total = 0.0
        for group in "GCL":
            scale = 1.0 if group == "G" else alpha
            for j, b in enumerate(self.bindings[group]):
                total += scale * weighted_pair_distance(
                    zo.pair(group, j), zx.pair(group, j),
                    self.weights[b.name].value, group)
        return total

    def _update_tangent_weights(self, zx: CircuitState) -> None:
        for group in "GCL":
            for j, b in enumerate(self.bindings[group]):
                if b.mode != "data":
                    continue
                ref = self.w_ref[b.name]
                self.weights[b.name] = local_tangent_weight(
                    b.data, zx.pair(group, j), TANGENT_K, self.weights[b.name],
                    w_min=W_MIN_FACTOR * ref, w_max=W_MAX_FACTOR * ref)

    # ------------------------------------------------------------------
    def solve_timestep(self, zx_seed: CircuitState, alpha: float, rhs_c: np.ndarray,
                       rhs_l: np.ndarray, v_src: np.ndarray, i_src: np.ndarray
                       ) -> tuple[CircuitState, CircuitState, DDStepTrace]:
        """Alternate the two projections to a fixed point for one time step."""
        cfg = self.config
        zx = zx_seed
        prev_sel = None
        trace = DDStepTrace()
        em_first = None
        em_prev = None
        zo = zx_seed
        for p in range(1, cfg.max_iters + 1):
            if cfg.weight_rule == "local-tangent":
                self._update_tangent_weights(zx)
            zo = self.project_to_kirchhoff(zx, alpha, rhs_c, rhs_l, v_src, i_src)
            zx_new, sel = self.project_to_data(zo)
            mismatch = self.energy_mismatch(zo, zx_new, alpha)
            trace.em_history.append(mismatch)
            trace.selected_indices.append(sel[0])
            trace.iterations = p
            zx = zx_new
            if em_first is None:
                em_first = mismatch
            if prev_sel is not None and _selections_equal(sel, prev_sel):
                break
            prev_sel = sel
            if mismatch <= MISMATCH_FLOOR:
                break
            if em_prev is not None and abs(em_prev - mismatch) <= \
                    cfg.tol_em * (em_first + MISMATCH_FLOOR):
                break
            em_prev = mismatch
        else:
            trace.converged = False
        trace.final_mismatch = trace.em_history[-1]
        trace.feasibility_residual = self.feasibility_residual(
            zo, alpha, rhs_c, rhs_l, v_src, i_src)
        return zo, zx, trace

    # ------------------------------------------------------------------
    def seed_state(self, q_c0: np.ndarray, psi_l0: np.ndarray) -> CircuitState:
        """Data state nearest the zero pair per element (model origin if known)."""
        zx = CircuitState.zeros(self.graph)
        origin = np.zeros(2)
        for group in "GCL":
            for j, b in enumerate(self.bindings[group]):
                if b.mode == "data":
                    p, _ = nearest_measurement(b.data, origin, self.weights[b.name].value)
                    zx.set_pair(group, j, p)
        zx.q_c = q_c0.copy()
        zx.psi_l = psi_l0.copy()
        return zx

    def initial_state(self, t0: float, q_c0: np.ndarray, psi_l0: np.ndarray
                      ) -> tuple[CircuitState, CircuitState]:
        """Data-driven consistent state at t0 with charges and fluxes pinned.

        Static variant of the projection: capacitor voltages are pinned to the
        value matching the pinned initial charge (model inverse, or the data
        pair nearest in charge), capacitor branch currents are free unknowns,
        inductor currents are fixed, and the fixed point iterates only over
        the remaining free element pairs.  Returns (accepted state, final data
        state) for warm starting the first step.
        """
        inc = self.inc
        i_l0 = self._initial_inductor_currents(psi_l0)
        v_c0 = self._initial_capacitor_voltages(q_c0)
        v_src, i_src = self.sources(t0)

        nphi, n_g, n_c, n_v = self.nphi, self.n_g, self.n_c, self.n_v
        n_mu = len(self.known["G"])
        n = nphi + n_g + n_c + n_v + nphi + n_c + n_v + n_mu
        s_phi = slice(0, nphi)
        s_ig = slice(nphi, nphi + n_g)
        s_ic = slice(s_ig.stop, s_ig.stop + n_c)
        s_iv = slice(s_ic.stop, s_ic.stop + n_v)
        s_eta = slice(s_iv.stop, s_iv.stop + nphi)
        s_lc = slice(s_eta.stop, s_eta.stop + n_c)
        s_lv = slice(s_lc.stop, s_lc.stop + n_v)
        s_mu = slice(s_lv.stop, n)

        w = self.weight_arrays()

        def assemble():
            m = np.zeros((n, n))
            m[s_phi, s_phi] = (inc.a_g * w.g) @ inc.a_g.T
            m[s_phi, s_lc] = -inc.a_c
            m[s_phi, s_lv] = -inc.a_v
            m[s_ig, s_ig] = np.diag(1.0 / w.g)
            m[s_ig, s_eta] = -inc.a_g.T
            m[s_ic, s_eta] = -inc.a_c.T
            m[s_iv, s_eta] = -inc.a_v.T
            m[s_eta, s_ig] = inc.a_g
            m[s_eta, s_ic] = inc.a_c
            m[s_eta, s_iv] = inc.a_v
            m[s_lc, s_phi] = inc.a_c.T
            m[s_lv, s_phi] = inc.a_v.T
            self._fold_known(m, "G", s_mu, s_ig, s_phi, inc.a_g)
            return m

        zx = self.seed_state(q_c0, psi_l0)
        state = None
        prev_sel = None
        for _ in range(self.config.max_iters):
            lu = self._factor(("initial", self._weights_key(), self._slopes_key()),
                              assemble)
            b = np.zeros(n)
            b[s_phi] = inc.a_g @ (w.g * zx.v_g)
            b[s_ig] = zx.i_g / w.g
            b[s_eta] = inc.a_i @ i_src - inc.a_l @ i_l0
            b[s_lc] = v_c0
            b[s_lv] = v_src
            b[s_mu] = [t.offset for t in self.known["G"]]
            z = scipy.linalg.lu_solve(lu, b)
            phi = z[s_phi]
            state = CircuitState(
                phi=phi, v_g=inc.a_g.T @ phi, i_g=z[s_ig],
                v_c=inc.a_c.T @ phi, q_c=q_c0.copy(),
                psi_l=psi_l0.copy(), i_l=i_l0.copy(), i_v=z[s_iv])
            zx, sel = self.project_to_data(state)
            zx.q_c = q_c0.copy()
            zx.psi_l = psi_l0.copy()
            if prev_sel is not None and _selections_equal(sel, prev_sel):
                break
            prev_sel = sel
        return state, zx

    def _initial_capacitor_voltages(self, q_c0: np.ndarray) -> np.ndarray:
        v_c0 = np.zeros(self.n_c)
        for j, b in enumerate(self.bindings["C"]):
            if b.mode == "known":
                v_c0[j] = em.capacitor_voltage_from_charge(b.model, q_c0[j])
            else:
                k = int(np.argmin(np.abs(b.data.pairs[:, 1] - q_c0[j])))
                v_c0[j] = b.data.pairs[k, 0]
        return v_c0

    def _initial_inductor_currents(self, psi_l0: np.ndarray) -> np.ndarray:
        i_l0 = np.zeros(self.n_l)
        for j, b in enumerate(self.bindings["L"]):
            if b.mode == "known":
                i_l0[j] = psi_l0[j] / b.model.value
            else:
                k = int(np.argmin(np.abs(b.data.pairs[:, 0] - psi_l0[j])))
                i_l0[j] = b.data.pairs[k, 1]
        return i_l0


def _selections_equal(a: tuple, b: tuple) -> bool:
    return a[0] == b[0] and len(a[1]) == len(b[1]) and \
        all(x == y for x, y in zip(a[1], b[1]))


def run_transient_dd(graph: CircuitGraph, inc: IncidenceSet,
                     bindings: list[ElementBinding], config: TransientConfig,
                     dd_config: DDConfig | None = None) -> TransientTrace:
    """March the data-driven solver, warm-starting each step from the last data state."""
    solver = DDSolver(graph, inc, bindings, dd_config)
    state0, zx0 = solver.initial_state(config.t0, *config.init.resolve(graph))

    def step(zx, t, alpha, rhs_c, rhs_l):
        zo, zx, trace = solver.solve_timestep(zx, alpha, rhs_c, rhs_l, *solver.sources(t))
        return zo, zx, trace.iterations, trace.converged, trace

    return march(graph, config, state0, zx0, step)


def brute_force_timestep(solver: DDSolver, alpha: float,
                         rhs_c: np.ndarray, rhs_l: np.ndarray,
                         v_src: np.ndarray, i_src: np.ndarray,
                         cap: int = 10 ** 6):
    """Enumerate all data-state combinations; exact oracle for the double minimization.

    Known elements are folded into the Kirchhoff projection as tangent
    constraints; for each enumerated tuple the alternation is repeated until
    the known pairs stop moving (a Newton iteration for nonlinear models, at
    most 200 passes).  Returns
    (best K-feasible state, best index tuple, global minimum mismatch).
    """
    dd_elems = [(group, j, b) for group in "GCL"
                for j, b in enumerate(solver.bindings[group]) if b.mode == "data"]
    sizes = [len(b.data) for _, _, b in dd_elems]
    n_tuples = int(np.prod(sizes)) if sizes else 1
    if n_tuples > cap:
        raise DDSolverError(f"brute force cap exceeded: {n_tuples} > {cap}")

    has_known = any(b.mode == "known" for group in "GCL" for b in solver.bindings[group])
    best = None
    for combo in itertools.product(*(range(s) for s in sizes)):
        zx = CircuitState.zeros(solver.graph)
        for (group, j, b), idx in zip(dd_elems, combo):
            zx.set_pair(group, j, b.data.pairs[idx])
        for _ in range(200 if has_known else 1):
            zo = solver.project_to_kirchhoff(zx, alpha, rhs_c, rhs_l, v_src, i_src)
            zx_new, _ = solver.project_to_data(zo)
            for (group, j, b), idx in zip(dd_elems, combo):
                zx_new.set_pair(group, j, b.data.pairs[idx])  # tuple stays frozen
            gap = max(abs(zx_new.pair(g, j2) - zx.pair(g, j2)).max()
                      for g in "GCL" for j2 in range(solver.graph.count(g))) \
                if has_known else 0.0
            zx = zx_new
            if gap == 0.0:
                break
        mismatch = solver.energy_mismatch(zo, zx, alpha)
        if best is None or mismatch < best[2]:
            best = (zo, combo, mismatch)
    return best
