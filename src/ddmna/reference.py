"""Traditional model-based MNA transient solver (the reference solution).

Unknowns per step are (phi, i_L, i_V); capacitor charges are eliminated via
q = q(v) and resistive currents via i = i(v).  The companion scheme and the
time grid come from `state.march`.  Nonlinear steps are solved with damped
Newton; for an all-linear circuit the step Jacobian is factored once per step
size.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

from . import elements as em
from .dataset import ElementBinding
from .netlist import CircuitGraph, IncidenceSet
from .state import CircuitState, TransientConfig, TransientTrace, march

NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 8
NEWTON_RTOL = 1e-12


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
    """Damped-Newton MNA stepper for circuits with fully known elements."""

    def __init__(self, graph: CircuitGraph, inc: IncidenceSet,
                 bindings: list[ElementBinding]):
        self.graph = graph
        self.inc = inc
        models = models_by_group(graph, bindings)
        self.g_models = models["G"]
        self.c_models = models["C"]
        self.l_values = np.array([m.value for m in models["L"]])
        self.v_waves = [e.waveform for e in graph.groups["V"]]
        self.i_waves = [e.waveform for e in graph.groups["I"]]
        self.nphi = graph.n - 1
        self.n_l = graph.count("L")
        self.n_v = graph.count("V")
        self._linear_lu = None  # (alpha, jac, lu, piv, info) of the last factored Jacobian

    # -- sources --------------------------------------------------------
    def sources(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        v_src = np.array([em.source_value(w, t) for w in self.v_waves])
        i_src = np.array([em.source_value(w, t) for w in self.i_waves])
        return v_src, i_src

    @staticmethod
    def _source_scale(v_src: np.ndarray, i_src: np.ndarray) -> float:
        return max([1.0, *(abs(x) for x in v_src), *(abs(x) for x in i_src)])

    # -- residual / Jacobian ---------------------------------------------
    def _split(self, x: np.ndarray):
        return (x[:self.nphi],
                x[self.nphi:self.nphi + self.n_l],
                x[self.nphi + self.n_l:])

    def residual_jacobian(self, x: np.ndarray, alpha: float,
                          rhs_c: np.ndarray, rhs_l: np.ndarray,
                          v_src: np.ndarray, i_src: np.ndarray):
        inc = self.inc
        phi, i_l, i_v = self._split(x)
        v_g = inc.a_g.T @ phi
        v_c = inc.a_c.T @ phi
        i_g = np.array([em.conductor_current(m, v) for m, v in zip(self.g_models, v_g)])
        g_g = np.array([em.conductor_conductance(m, v) for m, v in zip(self.g_models, v_g)])
        q_c = np.array([em.capacitor_charge(m, v) for m, v in zip(self.c_models, v_c)])
        c_c = np.array([em.capacitor_capacitance(m, v) for m, v in zip(self.c_models, v_c)])
        qdot = alpha * q_c - rhs_c
        psi = self.l_values * i_l
        psidot = alpha * psi - rhs_l

        f = np.concatenate([
            inc.a_g @ i_g + inc.a_c @ qdot + inc.a_l @ i_l + inc.a_v @ i_v - inc.a_i @ i_src,
            inc.a_l.T @ phi - psidot,
            inc.a_v.T @ phi - v_src,
        ])
        n = self.nphi + self.n_l + self.n_v
        jac = np.zeros((n, n))
        jac[:self.nphi, :self.nphi] = (inc.a_g * g_g) @ inc.a_g.T \
            + alpha * (inc.a_c * c_c) @ inc.a_c.T
        jac[:self.nphi, self.nphi:self.nphi + self.n_l] = inc.a_l
        jac[:self.nphi, self.nphi + self.n_l:] = inc.a_v
        jac[self.nphi:self.nphi + self.n_l, :self.nphi] = inc.a_l.T
        jac[self.nphi:self.nphi + self.n_l, self.nphi:self.nphi + self.n_l] = \
            -alpha * np.diag(self.l_values) if self.n_l else np.zeros((0, 0))
        jac[self.nphi + self.n_l:, :self.nphi] = inc.a_v.T
        return f, jac

    # -- all-linear circuits -----------------------------------------------
    @functools.cached_property
    def linear_values(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(conductances, capacitances) when every G and C model is linear, else None.

        Such a circuit has a step Jacobian that depends on alpha only; it is
        built and factored once per alpha (see `_linear_system`).
        """
        if not all(isinstance(m, em.LinearModel) for m in (*self.g_models, *self.c_models)):
            return None
        return (np.array([m.value for m in self.g_models], dtype=float),
                np.array([m.value for m in self.c_models], dtype=float))

    def _linear_system(self, alpha: float):
        """Step Jacobian of an all-linear circuit and its LU factors, kept for one alpha."""
        if self._linear_lu is None or self._linear_lu[0] != alpha:
            inc = self.inc
            n = self.nphi + self.n_l + self.n_v
            _, jac = self.residual_jacobian(
                np.zeros(n), alpha, np.zeros(inc.a_c.shape[1]), np.zeros(self.n_l),
                np.zeros(self.n_v), np.zeros(inc.a_i.shape[1]))
            lu, piv, info = lapack.dgetrf(jac)
            self._linear_lu = (alpha, jac, lu, piv, info)
        return self._linear_lu

    def _linear_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the factored Jacobian of `_linear_system`."""
        _, _, lu, piv, info = self._linear_lu
        if info != 0:
            raise np.linalg.LinAlgError("Singular matrix")
        x, _ = lapack.dgetrs(lu, piv, rhs)
        return x

    # -- one implicit step ------------------------------------------------
    def step(self, x0: np.ndarray, t: float, alpha: float, rhs_c: np.ndarray,
             rhs_l: np.ndarray) -> tuple[np.ndarray, int]:
        """Solve the companion system at time t from x0; returns (x, Newton iterations)."""
        v_src, i_src = self.sources(t)
        tol = NEWTON_RTOL * self._source_scale(v_src, i_src)
        if self.linear_values is not None:
            # f(x) = jac @ x - b: the same Newton loop, on a kept factorization
            _, lin_jac, _, _, _ = self._linear_system(alpha)
            inc = self.inc
            b = np.concatenate([inc.a_c @ rhs_c + inc.a_i @ i_src, -rhs_l, v_src])

            def residual_jacobian(x):
                return lin_jac @ x - b, lin_jac

            def solve(jac, rhs):
                return self._linear_solve(rhs)
        else:
            def residual_jacobian(x):
                return self.residual_jacobian(x, alpha, rhs_c, rhs_l, v_src, i_src)

            solve = np.linalg.solve

        x = x0.copy()
        f, jac = residual_jacobian(x)
        norm = np.linalg.norm(f, np.inf)
        for it in range(1, NEWTON_MAX_ITER + 1):
            if norm <= tol:
                # one undamped polish step: quadratic convergence drives the
                # residual to machine level, keeping the per-step balance
                # clean relative to even the smallest current scales
                if norm > 0.0:
                    try:
                        delta = solve(jac, -f)
                    except np.linalg.LinAlgError:
                        return x, it - 1
                    f_try, _ = residual_jacobian(x + delta)
                    if np.linalg.norm(f_try, np.inf) < norm:
                        x = x + delta
                return x, it - 1
            try:
                delta = solve(jac, -f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular MNA system at t={t}: {exc}") from None
            lam = 1.0
            for _ in range(NEWTON_MAX_HALVINGS + 1):
                x_try = x + lam * delta
                f_try, jac_try = residual_jacobian(x_try)
                norm_try = np.linalg.norm(f_try, np.inf)
                if norm_try < norm or norm <= tol:
                    break
                lam *= 0.5
            x, f, jac, norm = x_try, f_try, jac_try, norm_try
        if norm > tol:
            raise SolverError(f"Newton failed at t={t}: residual {norm:.3e} > {tol:.3e}")
        return x, NEWTON_MAX_ITER

    def state_from_x(self, x: np.ndarray) -> CircuitState:
        inc = self.inc
        phi, i_l, i_v = self._split(x)
        v_g = inc.a_g.T @ phi
        v_c = inc.a_c.T @ phi
        if self.linear_values is not None:
            i_g, q_c = self.linear_values[0] * v_g, self.linear_values[1] * v_c
        else:
            i_g = np.array([em.conductor_current(m, v) for m, v in zip(self.g_models, v_g)])
            q_c = np.array([em.capacitor_charge(m, v) for m, v in zip(self.c_models, v_c)])
        return CircuitState(
            phi=phi.copy(),
            v_g=v_g,
            i_g=i_g,
            v_c=v_c,
            q_c=q_c,
            psi_l=self.l_values * i_l,
            i_l=i_l.copy(),
            i_v=i_v.copy(),
        )

    # -- consistent initial state -----------------------------------------
    def initial_state(self, t0: float, q_c0: np.ndarray, psi_l0: np.ndarray) -> CircuitState:
        """Algebraic operating point with charges/fluxes pinned at their initial values."""
        inc = self.inc
        n_c = self.graph.count("C")
        v_c0 = np.array([em.capacitor_voltage_from_charge(m, q)
                         for m, q in zip(self.c_models, q_c0)])
        i_l0 = psi_l0 / self.l_values if self.n_l else np.zeros(0)
        v_src, i_src = self.sources(t0)
        tol = NEWTON_RTOL * self._source_scale(v_src, i_src)

        n = self.nphi + n_c + self.n_v
        y = np.zeros(n)
        for it in range(NEWTON_MAX_ITER):
            phi = y[:self.nphi]
            i_c = y[self.nphi:self.nphi + n_c]
            i_v = y[self.nphi + n_c:]
            v_g = inc.a_g.T @ phi
            i_g = np.array([em.conductor_current(m, v) for m, v in zip(self.g_models, v_g)])
            g_g = np.array([em.conductor_conductance(m, v) for m, v in zip(self.g_models, v_g)])
            f = np.concatenate([
                inc.a_g @ i_g + inc.a_c @ i_c + inc.a_l @ i_l0 + inc.a_v @ i_v
                - inc.a_i @ i_src,
                inc.a_c.T @ phi - v_c0,
                inc.a_v.T @ phi - v_src,
            ])
            if np.linalg.norm(f, np.inf) <= tol:
                break
            jac = np.zeros((n, n))
            jac[:self.nphi, :self.nphi] = (inc.a_g * g_g) @ inc.a_g.T
            jac[:self.nphi, self.nphi:self.nphi + n_c] = inc.a_c
            jac[:self.nphi, self.nphi + n_c:] = inc.a_v
            jac[self.nphi:self.nphi + n_c, :self.nphi] = inc.a_c.T
            jac[self.nphi + n_c:, :self.nphi] = inc.a_v.T
            try:
                y = y + np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular initial-state system: {exc}") from None
        else:
            raise SolverError("initial operating point did not converge")

        phi = y[:self.nphi]
        v_g = inc.a_g.T @ phi
        return CircuitState(
            phi=phi.copy(),
            v_g=v_g,
            i_g=np.array([em.conductor_current(m, v) for m, v in zip(self.g_models, v_g)]),
            v_c=v_c0,
            q_c=q_c0.copy(),
            psi_l=psi_l0.copy(),
            i_l=i_l0.copy(),
            i_v=y[self.nphi + n_c:].copy(),
        )


def run_transient_traditional(graph: CircuitGraph, inc: IncidenceSet,
                              bindings: list[ElementBinding],
                              config: TransientConfig) -> TransientTrace:
    """March the model-based MNA solver over the configured time grid."""
    solver = TraditionalSolver(graph, inc, bindings)
    state0 = solver.initial_state(config.t0, *config.init.resolve(graph))

    def step(x, t, alpha, rhs_c, rhs_l):
        x, n_it = solver.step(x, t, alpha, rhs_c, rhs_l)
        return solver.state_from_x(x), x, n_it, True, None

    return march(graph, config, state0,
                 np.concatenate([state0.phi, state0.i_l, state0.i_v]), step)


def kcl_residual(inc: IncidenceSet, trace: TransientTrace,
                 i_src_of=None) -> float:
    """Max discrete KCL residual over accepted steps, relative to the current scale.

    Uses the charge rates recorded by `state.march`, so it applies to both
    schemes and both solvers.  `i_src_of(t)` supplies source currents
    (defaults to none).
    """
    worst = 0.0
    for k in range(1, len(trace.states)):
        s = trace.states[k]
        qdot = trace.rates[k][0]
        i_src = i_src_of(trace.times[k]) if i_src_of else np.zeros(inc.a_i.shape[1])
        r = inc.a_g @ s.i_g + inc.a_c @ qdot + inc.a_l @ s.i_l + inc.a_v @ s.i_v \
            - inc.a_i @ i_src
        scale = max(1e-30, np.abs(s.i_g).max(initial=0.0), np.abs(s.i_v).max(initial=0.0),
                    np.abs(qdot).max(initial=0.0))
        worst = max(worst, np.abs(r).max(initial=0.0) / scale)
    return worst
