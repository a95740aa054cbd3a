"""Traditional model-based MNA transient solver (the reference solution).

Unknowns per step are x = (phi, i_L, i_V); capacitor charges and resistive
currents are eliminated via q = q(v) and i = i(v).  `state.march` sets the
companion scheme and the time grid.  The linear stamp (`netlist.mna_stamp` of
the inductors and the linear G and C) is built once per step size.  A circuit
with no nonlinear element LU-factors it and takes one solve with those kept
factors per step; on any other circuit each step is one damped Newton loop,
in which the nonlinear elements add their currents, charges and rank-1 stamps
at each iterate, from one model evaluation each.  The solver keeps the
Jacobian and model values of the iterate it accepts, and a step that starts
from that iterate at the same alpha, as the march's next step does, starts
from them: its first residual is the linear stamp's product and the kept
values' product, with the arithmetic of `residual_jacobian`, so it equals a
fresh start bit for bit.  The state is one exact lift of the accepted x: an
unknown, a potential difference or, at a nonlinear column, that iterate's
model value, times 1 or a linear G, C or L value.  The consistent state at t0
is one step of the held circuit (`netlist.held_circuit`), so `step` holds the
only solver code.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

from . import elements as em
from .dataset import ElementBinding, held_values
from .netlist import CircuitGraph, IncidenceSet, build_incidence, held_circuit, mna_stamp
from .state import CircuitState, TransientConfig, TransientTrace, march, release_held

NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 8
NEWTON_RTOL = 1e-12
KCL_BLOCK = 32  # steps per stacked block of `kcl_residual`: bounds its temporaries
_NO_VALUES = np.zeros(0)  # the model values of a circuit with no nonlinear column


class SolverError(RuntimeError):
    """Newton non-convergence or a singular circuit system."""


def analytic_rc_voltage(r: float, c: float, v: float, t) -> float | np.ndarray:
    """Capacitor voltage of a series RC circuit with a DC source, zero initial charge."""
    if not (r > 0.0 and c > 0.0):
        raise ValueError("R and C must be positive")
    return v * (1.0 - np.exp(-np.asarray(t, float) / (r * c)))


def models_by_group(graph: CircuitGraph, bindings: list[ElementBinding]) -> dict[str, list]:
    """Per-group model lists in incidence column order; every binding must be known."""
    by_name = {b.name: b for b in bindings}
    out: dict[str, list] = {}
    for group in "GCL":
        models = []
        for e in graph.groups[group]:
            b = by_name.get(e.name)
            if b is None:
                raise ValueError(f"no binding for element {e.name}")
            if b.mode != "known":
                raise ValueError(f"traditional solver needs a model for {e.name}")
            models.append(b.model)
        out[group] = models
    return out


class TraditionalSolver:
    """MNA stepper for circuits with fully known elements: one solve per step
    when every element is linear, else damped Newton."""

    def __init__(self, graph: CircuitGraph, inc: IncidenceSet,
                 bindings: list[ElementBinding]):
        self.graph = graph
        self.inc = inc
        self.bindings = bindings
        models = models_by_group(graph, bindings)
        self.g_models = models["G"]
        self.c_models = models["C"]
        self.l_values = np.array([m.value for m in models["L"]])
        self.nphi = graph.n - 1
        self.n_l = graph.count("L")
        self.n_v = graph.count("V")
        self._waves = [[e.waveform for e in graph.groups[group]] for group in "VI"]
        self._system = None  # `_linear_system`'s slot for the last alpha
        self._accepted = None  # (x, alpha, Jacobian, model values) of the last accepted iterate

    # -- the linear stamp and the nonlinear columns ------------------------
    @functools.cached_property
    def _columns(self):
        """G and C split on first use: the linear values (0 at nonlinear
        columns), the nonlinear columns' indices in G and in C, their models,
        their incidence columns and which of them are C, G first."""
        g_lin, c_lin = (np.array([m.value if isinstance(m, em.LinearModel) else 0.0 for m in ms])
                        for ms in (self.g_models, self.c_models))
        nl_g, nl_c = (np.flatnonzero(values == 0.0) for values in (g_lin, c_lin))
        models = [self.g_models[k] for k in nl_g] + [self.c_models[k] for k in nl_c]
        a_n = np.hstack([self.inc.a_g[:, nl_g], self.inc.a_c[:, nl_c]])
        return g_lin, c_lin, nl_g, nl_c, models, a_n, np.arange(len(models)) >= len(nl_g)

    def _linear_system(self, alpha: float):
        """(alpha, J_lin, lu, scale, a_n.T), kept for one alpha: the linear
        stamp J_lin(alpha) (`netlist.mna_stamp` of the linear G, C and L
        values); on a circuit with no nonlinear column its LU factors
        (lu, piv, info), else None; the nonlinear columns' scale (alpha at a C
        column, 1 at a G column) and their incidence columns transposed.  The
        Newton loop reads the stamp alone."""
        if self._system is None or self._system[0] != alpha:
            g_lin, c_lin, _, _, models, a_n, is_c = self._columns
            jac = mna_stamp(self.inc, alpha, g_lin, c_lin, self.l_values)
            self._system = (alpha, jac, None if models else lapack.dgetrf(jac),
                            np.where(is_c, alpha, 1.0), a_n.T.copy())
        return self._system

    def _residual(self, x: np.ndarray, b: np.ndarray, system, values: np.ndarray):
        """Residual f = J_lin @ x - b plus the nonlinear columns' a i(v) and
        alpha a q(v), from `_linear_system`'s slot and the model values at x."""
        _, jac, _, scale, a_n_t = system
        f = jac.dot(x) - b
        if values.size:
            f[:self.nphi] += a_n_t.T.dot(scale * values)
        return f

    def residual_jacobian(self, x: np.ndarray, alpha: float, b: np.ndarray):
        """(f, Jacobian, model values) at x: the residual (`_residual`); its
        Jacobian, J_lin itself when every column is linear, else a copy with
        the nonlinear rank-1 stamps added; and the nonlinear columns' i (G)
        or q (C) at x, G first.  Each nonlinear column's model is evaluated
        once: (i, di/dv) for G, (q, dq/dv) for C."""
        system = self._linear_system(alpha)
        _, jac, _, scale, a_n_t = system
        models = self._columns[4]
        values = _NO_VALUES
        if models:
            values, slope = np.array([em.response_slope(m, v) for m, v in
                                      zip(models, a_n_t.dot(x[:self.nphi]).tolist())]).T
            jac = jac.copy()
            jac[:self.nphi, :self.nphi] += (a_n_t.T * (scale * slope)).dot(a_n_t)
        return self._residual(x, b, system, values), jac, values

    @staticmethod
    def _solve(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve jac @ x = rhs for one nonlinear iterate's Jacobian (one dgesv)."""
        _, _, x, info = lapack.dgesv(jac, rhs)
        if info != 0:
            raise np.linalg.LinAlgError("Singular matrix")
        return x

    # -- one implicit step ------------------------------------------------
    def step(self, x: np.ndarray, t: float, alpha: float, rhs_c: np.ndarray,
             rhs_l: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
        """Solve the companion system at time t from x, which it does not modify;
        returns (x, Newton iterations, the nonlinear columns' i and q at x).
        With no nonlinear column the system is J_lin(alpha) x = b: one solve
        with the kept LU factors, reported as 1 iteration.  Else the solver
        keeps the Jacobian and model values at the x it returns, which the
        caller must not change in place; a next call with that same array
        (not a copy) and the same alpha starts from them and evaluates no
        model.  A residual that is not finite ends the Newton loop with
        `SolverError` at once."""
        v_src, i_src = ([em.source_value(w, t) for w in waves] for waves in self._waves)
        b = np.concatenate([self.inc.a_c.dot(rhs_c) + self.inc.a_i.dot(i_src), -rhs_l, v_src])
        system = self._linear_system(alpha)
        if system[2] is not None:
            lu, piv, info = system[2]
            if info != 0:
                raise SolverError(f"singular MNA system at t={t}")
            x, _ = lapack.dgetrs(lu, piv, b)
            if not np.isfinite(x).all():
                raise SolverError(f"non-finite solution at t={t}")
            return x, 1, _NO_VALUES
        tol = NEWTON_RTOL * max([1.0, *map(abs, v_src), *map(abs, i_src)])
        kept = self._accepted
        if kept is not None and kept[0] is x and kept[1] == alpha:
            jac, values = kept[2:]
            f = self._residual(x, b, system, values)
        else:
            f, jac, values = self.residual_jacobian(x, alpha, b)
        norm = np.maximum.reduce(np.abs(f), initial=0.0)
        for it in range(1, NEWTON_MAX_ITER + 1):
            if norm <= tol:
                # one undamped polish step: quadratic convergence drives the
                # residual to machine level, keeping the per-step balance
                # clean relative to even the smallest current scales
                if norm > 0.0:
                    try:
                        delta = self._solve(jac, -f)
                    except np.linalg.LinAlgError:
                        pass
                    else:
                        x_try = x + delta
                        f_try, jac_try, values_try = self.residual_jacobian(x_try, alpha, b)
                        if np.maximum.reduce(np.abs(f_try), initial=0.0) < norm:
                            x, jac, values = x_try, jac_try, values_try
                self._accepted = (x, alpha, jac, values)
                return x, it - 1, values
            if not norm < np.inf:  # NaN or inf: the step is lost
                raise SolverError(f"Newton failed at t={t}: residual {norm:.3e} is not finite")
            try:
                delta = self._solve(jac, -f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular MNA system at t={t}: {exc}") from None
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                x_try = x + lam * delta
                f_try, jac_try, values_try = self.residual_jacobian(x_try, alpha, b)
                norm_try = np.maximum.reduce(np.abs(f_try), initial=0.0)
                if norm_try < norm or not norm_try < np.inf:
                    break
                lam *= 0.5
            x, f, jac, norm, values = x_try, f_try, jac_try, norm_try, values_try
        if not norm <= tol:
            raise SolverError(f"Newton failed at t={t}: residual {norm:.3e} > {tol:.3e}")
        self._accepted = (x, alpha, jac, values)
        return x, NEWTON_MAX_ITER, values

    @functools.cached_property
    def _lift(self):
        """(lift, coef): the state at x is coef * lift(x, values), one gather from
        [x, a_g.T phi, a_c.T phi, values] (`CircuitState.lifter`), with values the
        nonlinear columns' i and q and coef 1, a linear G or C value or an L value."""
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
        lift = CircuitState.lifter(np.vstack([self.inc.a_g.T, self.inc.a_c.T]),
                                   phi, v_g, i_g, v_c, q_c, i_l, i_l, i_v)
        return lift, coef.x

    def state_from_x(self, x: np.ndarray, values: np.ndarray) -> CircuitState:
        """The circuit state at the Newton vector x, given `values`, the nonlinear
        columns' i and q at x (G first), as `step` returns them."""
        lift, coef = self._lift
        state = lift(x, values)
        state.x *= coef
        return state

    # -- consistent initial state -----------------------------------------
    def initial_state(self, t0: float, q_c0: np.ndarray, psi_l0: np.ndarray) -> CircuitState:
        """Consistent state at t0: one step from zeros of the held circuit
        (`netlist.held_circuit` at `dataset.held_values`), which has no charge
        or flux, so its step at companion factor 0 is the DC operating point."""
        v_c0, i_l0 = held_values(self.graph, self.bindings, q_c0, psi_l0)
        graph = held_circuit(self.graph, v_c0, i_l0)
        held = TraditionalSolver(graph, build_incidence(graph), self.bindings)
        none = np.zeros(0)
        x, _, values = held.step(np.zeros(held.nphi + held.n_v), t0, 0.0, none, none)
        return release_held(held.state_from_x(x, values), self.inc.a_c, q_c0, psi_l0, i_l0)


def run_transient_traditional(graph: CircuitGraph, inc: IncidenceSet,
                              bindings: list[ElementBinding],
                              config: TransientConfig) -> TransientTrace:
    """March the model-based MNA solver over the configured time grid."""
    solver = TraditionalSolver(graph, inc, bindings)
    state0 = solver.initial_state(config.t0, *config.init.resolve(graph))

    def step(x, t, alpha, rhs_c, rhs_l):
        x, n_it, values = solver.step(x, t, alpha, rhs_c, rhs_l)
        return solver.state_from_x(x, values), x, n_it, True, None

    return march(graph, config, state0,
                 np.concatenate([state0.phi, state0.i_l, state0.i_v]), step)


def kcl_residual(inc: IncidenceSet, trace: TransientTrace) -> float:
    """Max discrete KCL residual over accepted steps, relative to the current scale.

    Uses the charge rates recorded by `state.march`, so it applies to both
    schemes and both solvers.  Source currents are read from `trace.graph`.
    Blocks of up to KCL_BLOCK steps are stacked as columns, so the residuals
    and each step's scale are matrix expressions of bounded size.
    """
    waves = [e.waveform for e in trace.graph.groups["I"]]
    worst = 0.0
    for k in range(1, len(trace.states), KCL_BLOCK):
        block = slice(k, k + KCL_BLOCK)
        i_g, i_l, i_v = (np.array([getattr(s, name) for s in trace.states[block]]).T
                         for name in ("i_g", "i_l", "i_v"))
        qdot = np.array([rates[0] for rates in trace.rates[block]]).T
        i_src = np.array([[em.source_value(w, t) for w in waves] for t in trace.times[block]]).T
        r = inc.a_g.dot(i_g) + inc.a_c.dot(qdot) + inc.a_l.dot(i_l) + inc.a_v.dot(i_v) \
            - inc.a_i.dot(i_src)
        scale = np.maximum.reduce([np.abs(part).max(axis=0, initial=0.0)
                                   for part in (i_g, i_v, qdot)])
        worst = max(worst, (np.abs(r).max(axis=0, initial=0.0) / np.maximum(scale, 1e-30)).max())
    return float(worst)
