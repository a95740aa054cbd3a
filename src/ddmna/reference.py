"""Traditional model-based MNA transient solver (the reference solution).

Unknowns per step are x = (phi, i_L, i_V); capacitor charges and resistive
currents are eliminated via q = q(v) and i = i(v).  `state.march` sets the
companion scheme and the time grid.  Once per step size the solver LU-factors
a base stamp B: `netlist.mna_stamp` of the linear values, with fixed base
slopes g0 at the m nonlinear columns.  Seen from those columns the rest of the
circuit is a linear m-port, so each step is one solve x_b = B^-1 b and a
damped Newton on m unknowns: the iterate is x_b - Y S w, with Y = B^-1 E_n
kept with the factors and w the nonlinear columns' remainder past g0
(Woodbury's identity), and each try costs one model evaluation and one m x m
solve.  Every try is judged by the exact residual, and the step ends with a
Newton step from it.  A circuit with no nonlinear column has B = J_lin, and
x_b is its solution.  The solver keeps the model values and slopes of the
iterate it accepts, and a step that starts from that iterate at the same
alpha, as the march's next step does, starts from them with the arithmetic of
`residual_jacobian`, so it equals a fresh start bit for bit.  A march step
returns the state that `lift` takes from [x, a_g.T phi, a_c.T phi, model
values]: each entry an unknown, a potential difference or a model value,
times 1 or a linear G, C or L value.  The consistent state at t0 is one step
of the held circuit (`netlist.held_circuit`), so `step` holds the only solver
code.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg import lapack

from . import elements as em
from .dataset import ElementBinding, bindings_by_group, held_values
from .netlist import CircuitGraph, IncidenceSet, build_incidence, held_circuit, mna_stamp
from .state import CircuitState, Lift, TransientConfig, TransientTrace, march, release_held

NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 8
NEWTON_RTOL = 1e-12
_NO_VALUES = np.zeros(0)  # the model values of a circuit with no nonlinear column


def _max_abs(f: np.ndarray) -> float:
    """max |f_i|, or NaN when an entry is NaN; on a residual of a few entries
    Python floats beat NumPy's reductions."""
    values = f.tolist()
    total = sum(values)
    return max(map(abs, values)) if total == total else total


def _solve_m(zs: list, d: list, rhs: list) -> list:
    """Solve (I + Z S D) z = rhs, the m x m system of Woodbury's identity for
    the Jacobian B + E_n S D a_n.T, D = diag(d): a division when m = 1, else
    the minimum-norm least-squares solution, singular values below eps
    times the largest dropped.  Such a direction, as for a node that only
    far reverse-biased diodes touch, is one the Jacobian does not resolve
    against B's rounding, and the step does not move along it."""
    if len(rhs) == 1:
        return [rhs[0] / (1.0 + zs[0][0] * d[0])]
    return np.linalg.lstsq(np.eye(len(rhs)) + np.array(zs) * d, rhs)[0].tolist()


class SolverError(RuntimeError):
    """Newton non-convergence or a singular circuit system."""


def analytic_rc_voltage(r: float, c: float, v: float, t) -> float | np.ndarray:
    """Capacitor voltage of a series RC circuit with a DC source, zero initial charge."""
    if not (r > 0.0 and c > 0.0):
        raise ValueError("R and C must be positive")
    return v * (1.0 - np.exp(-np.asarray(t, float) / (r * c)))


class TraditionalSolver:
    """MNA stepper for circuits with fully known elements: one solve with the
    base stamp's LU factors per step, then damped Newton on the nonlinear
    columns."""

    def __init__(self, graph: CircuitGraph, inc: IncidenceSet,
                 bindings: list[ElementBinding]):
        self.graph = graph
        self.inc = inc
        self.bindings = bindings
        self.by_group = bindings_by_group(graph, bindings)
        for b in (b for group in "GCL" for b in self.by_group[group]):
            if b.mode != "known":
                raise ValueError(f"traditional solver needs a model for {b.name}")
        self.g_models, self.c_models, l_models = ([b.model for b in self.by_group[group]]
                                                  for group in "GCL")
        self.l_values = np.array([m.value for m in l_models])
        self.nphi = graph.n - 1
        self.n_l = graph.count("L")
        self.n_v = graph.count("V")
        self._waves = [[e.waveform for e in graph.groups[group]] for group in "VI"]
        self._system = None  # `_base`'s slot for the last alpha
        self._accepted = None  # (x, alpha, model values, slopes) of the last accepted iterate

    # -- the base stamp and the nonlinear columns --------------------------
    @functools.cached_property
    def _columns(self):
        """G and C split on first use: the linear values (0 at nonlinear
        columns), the nonlinear columns' indices in G and in C, their models,
        their incidence columns a_n and which of them are C, G first; then
        their base slopes g0 and end nodes, as indices into [x, 0]."""
        g_lin, c_lin = (np.array([m.value if isinstance(m, em.LinearModel) else 0.0 for m in ms])
                        for ms in (self.g_models, self.c_models))
        nl_g, nl_c = (np.flatnonzero(values == 0.0) for values in (g_lin, c_lin))
        models = [self.g_models[k] for k in nl_g] + [self.c_models[k] for k in nl_c]
        a_n = np.hstack([self.inc.a_g[:, nl_g], self.inc.a_c[:, nl_c]])
        # the slope at zero bias, raised at a G column to the circuit's
        # smallest linear conductance: B then holds a node that only diodes
        # touch at the circuit's own scale, not by a diode's reverse leakage
        floor = min(g_lin[g_lin > 0.0], default=0.0)
        slope0 = [max(em.response_slope(m, 0.0)[1], floor if k < len(nl_g) else 0.0)
                  for k, m in enumerate(models)]
        ends = [tuple(int(np.argmax(col == sign)) if (col == sign).any() else -1
                      for sign in (1.0, -1.0)) for col in a_n.T]
        return (g_lin, c_lin, nl_g, nl_c, models, a_n, np.arange(len(models)) >= len(nl_g),
                slope0, ends)

    def _base(self, alpha: float):
        """(alpha, [J_lin, E_n S], lu, piv, info, Y S, Z S, g0), kept for one
        alpha.  J_lin is the linear stamp (`netlist.mna_stamp` of the linear
        G, C and L values) and E_n the nonlinear columns' incidence a_n padded
        to the unknowns; S = diag(scale), scale alpha at a C column and 1 at a
        G column.  The base stamp B is J_lin plus the base slopes g0 at the
        nonlinear columns, (lu, piv, info) its LU factors, Y = B^-1 E_n and
        Z = a_n.T Y.  Z S and g0 are lists: the Newton loop runs on floats."""
        if self._system is None or self._system[0] != alpha:
            g_lin, c_lin, nl_g, nl_c, _, a_n, is_c, slope0, _ = self._columns
            g_base, c_base = g_lin.copy(), c_lin.copy()
            g_base[nl_g], c_base[nl_c] = (np.array(slope0)[mask] for mask in (~is_c, is_c))
            lu, piv, info = lapack.dgetrf(mna_stamp(self.inc, alpha, g_base, c_base,
                                                    self.l_values))
            e_ns = np.zeros((len(lu), len(slope0)))
            e_ns[:self.nphi] = a_n * np.where(is_c, alpha, 1.0)
            ys = lapack.dgetrs(lu, piv, e_ns)[0] if info == 0 and e_ns.size else e_ns
            self._system = (alpha, np.hstack([mna_stamp(self.inc, alpha, g_lin, c_lin,
                                                         self.l_values), e_ns]),
                            lu, piv, info, ys, a_n.T.dot(ys[:self.nphi]).tolist(), slope0)
        return self._system

    def _branch_voltages(self, x: np.ndarray) -> list:
        """a_n.T phi at x, the nonlinear columns' branch voltages, as floats."""
        xs = x.tolist()
        xs.append(0.0)
        return [xs[p] - xs[q] for p, q in self._columns[8]]

    @staticmethod
    def _residual(x: np.ndarray, b: np.ndarray, base, values: list) -> np.ndarray:
        """Residual f = J_lin @ x - b plus the nonlinear columns' a i(v) and
        alpha a q(v), that is [J_lin, E_n S] @ [x, values] - b, from `_base`'s
        slot and the model values at x."""
        return base[1].dot(x.tolist() + values) - b

    def residual_jacobian(self, x: np.ndarray, alpha: float, b: np.ndarray):
        """(f, slopes, values) at x: the residual (`_residual`), and the
        nonlinear columns' slopes and values at their branch voltages, one
        model call each: (i, di/dv) of a G column, (q, dq/dv) of a C column.
        The Jacobian is J_lin plus the rank-m stamp a_n diag(scale * slopes) a_n.T."""
        pairs = [em.response_slope(m, v)
                 for m, v in zip(self._columns[4], self._branch_voltages(x))]
        values, slopes = [p[0] for p in pairs], [p[1] for p in pairs]
        return self._residual(x, b, self._base(alpha), values), slopes, values

    # -- one implicit step ------------------------------------------------
    def step(self, x: np.ndarray, t: float, alpha: float, rhs_c: np.ndarray,
             rhs_l: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """Solve the companion system at time t from x, which it does not modify;
        returns (x, Newton iterations, the nonlinear columns' i and q at x).

        With u = a_n.T phi the nonlinear columns' branch voltages and
        c = r(u) - g0 u their values' remainder past the base slopes, the
        residual is F(x) = B x - b + E_n S c.  One solve gives x_b = B^-1 b,
        the solution when no column is nonlinear (reported as one iteration).
        Else a Newton step from any x lands at x_b - Y S w, with w = c + D du
        the remainder linearised at u + du, D = diag(slopes - g0) and du from
        one m x m solve (`_solve_m`).  Damped Newton therefore runs on
        (mu, w), x = x_b + mu (x0 - x_b) - Y S w from the warm start x0
        (mu = 1, w = 0); each try costs one model evaluation and is judged by
        its exact residual (`_residual`).  The step ends with the polish, a
        Newton step from the exact residual with the Jacobian's inverse taken
        from B's by Woodbury's identity, kept when it lowers that residual.
        When no try lowers the residual, because x_b - Y S w carries B's
        rounding, polish steps take the iterate to the tolerance, each
        counted as an iteration.

        The solver keeps the model values and slopes at the x it returns,
        which the caller must not change in place; a next call with that
        same array (not a copy) and the same alpha starts from them and
        evaluates no model.  A residual that is not finite ends the step
        with `SolverError` at once."""
        v_src, i_src = ([em.source_value(w, t) for w in waves] for waves in self._waves)
        b = self.inc.a_c.dot(rhs_c)
        if i_src:
            b += self.inc.a_i.dot(i_src)
        b = np.concatenate([b, -rhs_l, v_src] if self.n_l else [b, v_src])
        base = self._base(alpha)
        _, _, lu, piv, info, ys, zs, g0 = base
        if info != 0:
            raise SolverError(f"singular MNA system at t={t}")
        x_b, _ = lapack.dgetrs(lu, piv, b)
        if not zs:  # no nonlinear column: B is J_lin, and x_b solves the step
            if not all(map(math.isfinite, x_b.tolist())):
                raise SolverError(f"non-finite solution at t={t}")
            return x_b, 1, _NO_VALUES
        tol = NEWTON_RTOL * max([1.0, *map(abs, v_src), *map(abs, i_src)])
        kept = self._accepted
        if kept is not None and kept[0] is x and kept[1] == alpha:
            values, slopes = kept[2:]
            f = self._residual(x, b, base, values)
        else:
            f, slopes, values = self.residual_jacobian(x, alpha, b)
        norm, it = _max_abs(f), 0
        x0, mu, u_b, w = x, 1.0, self._branch_voltages(x_b), [0.0] * len(zs)
        while not norm <= tol:
            if it == NEWTON_MAX_ITER:
                raise SolverError(f"Newton failed at t={t}: residual {norm:.3e} > {tol:.3e}")
            u = self._branch_voltages(x)
            c = [r - g * v for r, g, v in zip(values, g0, u)]
            d = [sl - g for sl, g in zip(slopes, g0)]
            try:
                du = _solve_m(zs, d, [ub - ui - sum([z * cj for z, cj in zip(row, c)])
                                      for ui, ub, row in zip(u, u_b, zs)])
            except (ZeroDivisionError, np.linalg.LinAlgError):
                raise SolverError(f"singular MNA system at t={t}") from None
            w_full = [ci + di * dui for ci, di, dui in zip(c, d, du)]
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                mu_try = (1.0 - lam) * mu
                w_try = [wi + lam * (wf - wi) for wi, wf in zip(w, w_full)]
                x_try = x_b - ys.dot(w_try)
                if mu_try:
                    x_try += mu_try * (x0 - x_b)
                f_try, slopes_try, values_try = self.residual_jacobian(x_try, alpha, b)
                norm_try = _max_abs(f_try)
                if norm_try < norm or not norm_try < np.inf:
                    break
                lam *= 0.5
            else:  # no try lowers the residual: the polish steps go on
                break
            if not norm_try < np.inf:
                raise SolverError(f"Newton failed at t={t}: residual {norm_try:.3e} is not finite")
            x, f, norm, slopes, values, w, mu = (x_try, f_try, norm_try, slopes_try, values_try,
                                                 w_try, mu_try)
            it += 1
        while norm > 0.0:
            # the polish: J^-1 f = B^-1 f - Y S D (I + Z S D)^-1 a_n.T B^-1 f
            v, _ = lapack.dgetrs(lu, piv, f)
            d = [sl - g for sl, g in zip(slopes, g0)]
            try:
                q = _solve_m(zs, d, self._branch_voltages(v))
            except (ZeroDivisionError, np.linalg.LinAlgError):
                break
            x_try = x - v + ys.dot([di * qi for di, qi in zip(d, q)])
            f_try, slopes_try, values_try = self.residual_jacobian(x_try, alpha, b)
            norm_try = _max_abs(f_try)
            if not norm_try < norm:
                break
            above = norm > tol
            x, f, norm, slopes, values = x_try, f_try, norm_try, slopes_try, values_try
            if not above or it == NEWTON_MAX_ITER:
                break
            it += 1
        if not norm <= tol:
            raise SolverError(f"Newton failed at t={t}: residual {norm:.3e} > {tol:.3e}")
        self._accepted = (x, alpha, values, slopes)
        return x, it, np.array(values)

    @functools.cached_property
    def lift(self) -> Lift:
        """The `Lift` of (x, values), `values` the nonlinear columns' i and q
        at x (G first) as `step` returns them: the state at x is coef times
        one gather from [x, a_g.T phi, a_c.T phi, values], coef 1, a linear
        G or C value or an L value."""
        g_lin, c_lin, nl_g, nl_c, *_ = self._columns
        n_g, n_c = len(g_lin), len(c_lin)
        phi, i_l, i_v, v_g, v_c, nl = np.split(
            np.arange(self.nphi + self.n_l + self.n_v + n_g + n_c + len(nl_g) + len(nl_c)),
            np.cumsum([self.nphi, self.n_l, self.n_v, n_g, n_c]))
        i_g, q_c = v_g.copy(), v_c.copy()
        i_g[nl_g], q_c[nl_c] = nl[:len(nl_g)], nl[len(nl_g):]
        coef = CircuitState.zeros(self.graph)
        coef.x[:], coef.i_g, coef.q_c, coef.psi_l = 1.0, g_lin, c_lin, self.l_values
        coef.i_g[nl_g] = coef.q_c[nl_c] = 1.0
        return Lift(np.vstack([self.inc.a_g.T, self.inc.a_c.T]),
                    CircuitState(phi, v_g, i_g, v_c, q_c, i_l, i_l, i_v), coef.x)

    # -- consistent initial state -----------------------------------------
    def initial_state(self, t0: float, q_c0: np.ndarray, psi_l0: np.ndarray) -> CircuitState:
        """Consistent state at t0: one step from zeros of the held circuit
        (`netlist.held_circuit` at `dataset.held_values`), which has no charge
        or flux, so its step at companion factor 0 is the DC operating point."""
        v_c0, i_l0 = held_values(self.by_group, q_c0, psi_l0)
        graph = held_circuit(self.graph, v_c0, i_l0)
        held = TraditionalSolver(graph, build_incidence(graph), self.bindings)
        none = np.zeros(0)
        x, _, values = held.step(np.zeros(held.nphi + held.n_v), t0, 0.0, none, none)
        return release_held(held.lift(x, values), self.inc.a_c, q_c0, psi_l0, i_l0)


def run_transient_traditional(graph: CircuitGraph, inc: IncidenceSet,
                              bindings: list[ElementBinding],
                              config: TransientConfig) -> TransientTrace:
    """March the model-based MNA solver over the configured time grid."""
    solver = TraditionalSolver(graph, inc, bindings)
    state0 = solver.initial_state(config.t0, *config.init.resolve(graph))

    def step(x, t, alpha, rhs_c, rhs_l):
        x, n_it, values = solver.step(x, t, alpha, rhs_c, rhs_l)
        return solver.lift(x, values).x, x, n_it, True, None

    return march(graph, config, state0,
                 np.concatenate([state0.phi, state0.i_l, state0.i_v]), step)


def kcl_residual(inc: IncidenceSet, trace: TransientTrace) -> float:
    """Max discrete KCL residual over accepted steps, relative to the current scale.

    Uses the charge rates recorded by `state.march`, so it applies to both
    schemes and both solvers.  Source currents are read from `trace.graph`.
    Each step's residual and scale are one row of a matrix expression over
    the trace's state array and rate matrix.
    """
    i_g, i_l, i_v = (trace.series(name)[1:] for name in ("i_g", "i_l", "i_v"))
    qdot = trace.ydot[1:, :inc.a_c.shape[1]]
    waves = [e.waveform for e in trace.graph.groups["I"]]
    i_src = np.array([[em.source_value(w, t) for w in waves] for t in trace.times[1:]])
    r = i_g.dot(inc.a_g.T) + qdot.dot(inc.a_c.T) + i_l.dot(inc.a_l.T) + i_v.dot(inc.a_v.T) \
        - i_src.dot(inc.a_i.T)
    scale = np.maximum.reduce([np.abs(part).max(axis=1, initial=0.0)
                               for part in (i_g, i_v, qdot)])
    return float((np.abs(r).max(axis=1, initial=0.0) / np.maximum(scale, 1e-30)).max())
