"""Shared circuit-state containers and the time march of the transient solvers.

A `CircuitState` is one float vector `x`, laid out like a `trace.csv` row
after `t`: node potentials phi; one pair per element, (v, i) per G element,
(v, q) per capacitor, (psi, i) per inductor; voltage-source currents i_v.
The pairs are one contiguous block, which `pairs()` views as an (n, 2)
array; the eight named fields are views of `x` too.  A solver's state is one
exact lift (`Lift`) of its solver vector; `march` writes each step's state
into a row of one array, whose rows a `TransientTrace` views as states.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .netlist import CircuitGraph

_FIELDS = ("phi", "v_g", "i_g", "v_c", "q_c", "psi_l", "i_l", "i_v")


@lru_cache(maxsize=None)
def _layout(nphi: int, n_g: int, n_c: int, n_l: int, n_v: int) -> dict:
    """Slices of x: each field, each group's pair block (key "G", "C", "L"),
    every element's pairs (key None), and the length of x (key "size")."""
    g0, c0 = nphi, nphi + 2 * n_g
    l0 = c0 + 2 * n_c
    v0 = l0 + 2 * n_l
    return {"phi": slice(0, g0), "v_g": slice(g0, c0, 2), "i_g": slice(g0 + 1, c0, 2),
            "v_c": slice(c0, l0, 2), "q_c": slice(c0 + 1, l0, 2),
            "psi_l": slice(l0, v0, 2), "i_l": slice(l0 + 1, v0, 2),
            "i_v": slice(v0, v0 + n_v),
            "G": slice(g0, c0), "C": slice(c0, l0), "L": slice(l0, v0), None: slice(g0, v0),
            "size": v0 + n_v}


def _field(name: str) -> property:
    """A named part of x: reading gives a view, assigning writes into x."""
    return property(lambda self: self.x[self._lay[name]],
                    lambda self, value: self.x.__setitem__(self._lay[name], value))


class CircuitState:
    """Full per-step circuit state, stored as one vector `x`."""

    __slots__ = ("x", "_lay")

    phi = _field("phi")      # (n-1,) node potentials relative to ground
    v_g = _field("v_g")      # per G-element voltage
    i_g = _field("i_g")      # per G-element current
    v_c = _field("v_c")      # per capacitor voltage
    q_c = _field("q_c")      # per capacitor charge
    psi_l = _field("psi_l")  # per inductor flux
    i_l = _field("i_l")      # per inductor current
    i_v = _field("i_v")      # per voltage-source current

    def __init__(self, phi, v_g, i_g, v_c, q_c, psi_l, i_l, i_v):
        lay = self._lay = _layout(len(phi), len(v_g), len(v_c), len(psi_l), len(i_v))
        x = self.x = np.empty(lay["size"])
        for name, value in zip(_FIELDS, (phi, v_g, i_g, v_c, q_c, psi_l, i_l, i_v)):
            x[lay[name]] = value

    @classmethod
    def _of(cls, x: np.ndarray, lay: dict) -> "CircuitState":
        s = object.__new__(cls)
        s.x, s._lay = x, lay
        return s

    @classmethod
    def zeros(cls, graph: CircuitGraph) -> "CircuitState":
        lay = _layout(graph.n - 1, *(graph.count(group) for group in "GCLV"))
        return cls._of(np.zeros(lay["size"]), lay)

    def copy(self) -> "CircuitState":
        return CircuitState._of(self.x.copy(), self._lay)

    def pairs(self, group: str | None = None) -> np.ndarray:
        """(n, 2) view of one group's element pairs, or of all (G, C, then L):
        (v,i) for G, (v,q) for C, (psi,i) for L."""
        return self.x[self._lay[group]].reshape(-1, 2)

    def pair(self, group: str, index: int) -> np.ndarray:
        """A copy of one element's measurement-space pair."""
        return self.pairs(group)[index].copy()

    def set_pair(self, group: str, index: int, pair) -> None:
        self.pairs(group)[index] = pair


class Lift:
    """The exact lift of a solver's vectors to states.  A solution src and
    extra values tail give the vector e = [src, diff @ src[:k], *tail], k
    being diff's column count; entry j of the state is e[index[j]] * coef[j],
    with index the x of `positions` and coef 1 when None.  With diff a stack
    of transposed incidence matrices, every state entry is an entry of src or
    tail or one potential difference, times one coefficient."""

    def __init__(self, diff, positions: CircuitState, coef: np.ndarray | None = None):
        self.diff, self.index, self.lay = diff, positions.x.astype(np.intp), positions._lay
        self.coef = np.ones(len(self.index)) if coef is None else coef

    def __call__(self, src: np.ndarray, *tail) -> CircuitState:
        e = np.concatenate([src, self.diff.dot(src[:self.diff.shape[1]]), *tail])
        return CircuitState._of(e.take(self.index) * self.coef, self.lay)


def release_held(held: CircuitState, a_c: np.ndarray, q_c0: np.ndarray,
                 psi_l0: np.ndarray, i_l0: np.ndarray) -> CircuitState:
    """The circuit's state at t0 from a solved held circuit (`netlist.held_circuit`),
    whose leading source currents are the capacitor currents."""
    return CircuitState(phi=held.phi, v_g=held.v_g, i_g=held.i_g, v_c=a_c.T @ held.phi,
                        q_c=q_c0.copy(), psi_l=psi_l0.copy(), i_l=i_l0.copy(),
                        i_v=held.i_v[a_c.shape[1]:])


@dataclass
class InitialCondition:
    q_c0: np.ndarray | None = None
    psi_l0: np.ndarray | None = None

    def resolve(self, graph: CircuitGraph) -> tuple[np.ndarray, np.ndarray]:
        q = np.zeros(graph.count("C")) if self.q_c0 is None else np.asarray(self.q_c0, float)
        p = np.zeros(graph.count("L")) if self.psi_l0 is None else np.asarray(self.psi_l0, float)
        if q.shape != (graph.count("C"),) or p.shape != (graph.count("L"),):
            raise ValueError("initial condition dimensions do not match the circuit")
        return q, p


@dataclass
class TransientConfig:
    scheme: str = "backward-euler"  # or "trapezoidal"
    t0: float = 0.0
    t_end: float = 1.0
    steps: int = 100
    init: InitialCondition = field(default_factory=InitialCondition)

    def __post_init__(self):
        if self.scheme not in ("backward-euler", "trapezoidal"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not -np.inf < self.t0 < self.t_end < np.inf:
            raise ValueError("t0 and t_end must be finite, with t_end > t0")
        if self.steps < 1:
            raise ValueError("need at least one time step")

    @property
    def h(self) -> float:
        return (self.t_end - self.t0) / self.steps

    def times(self) -> np.ndarray:
        return self.t0 + self.h * np.arange(self.steps + 1)


class _Rows(Sequence):
    """A sequence of views of an array's rows: item k is view(rows[k])."""

    def __init__(self, rows: np.ndarray, view):
        self._rows, self._view = rows, view

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k):
        return _Rows(self._rows[k], self._view) if isinstance(k, slice) else self._view(self._rows[k])


@dataclass
class TransientTrace:
    """Time series of circuit states with per-step solver diagnostics.  Row k
    of `x` is the state at times[k] (`states` views the rows), row k of `ydot`
    the rates (qdot_c, psidot_l) step k solved for; row 0 holds the
    trapezoidal bootstrap rates, zeros under backward Euler."""

    graph: CircuitGraph
    times: np.ndarray
    x: np.ndarray                   # (K+1, len(CircuitState.x))
    ydot: np.ndarray                # (K+1, n_c + n_l)
    iterations: np.ndarray          # per step (index 0 unused, kept 0)
    converged: np.ndarray           # bool per step
    step_details: list = field(default_factory=list)  # solver-specific per-step records

    def __post_init__(self):
        g, n = self.graph, len(self.times)
        self._lay = _layout(g.n - 1, *(g.count(group) for group in "GCLV"))
        shapes = (n, self._lay["size"]), (n, g.count("C") + g.count("L"))
        if (self.x.shape, self.ydot.shape) != shapes:
            raise ValueError(f"state array and rate matrix of shapes {self.x.shape}, "
                             f"{self.ydot.shape} do not match {shapes[0]}, {shapes[1]}")

    @property
    def states(self) -> Sequence[CircuitState]:
        return _Rows(self.x, lambda row: CircuitState._of(row, self._lay))

    def series(self, name: str | None) -> np.ndarray:
        """(K+1, n) view of a field of x or a pair block ("G", "C", "L", None)."""
        return self.x[:, self._lay[name]]

    def pairs(self, group: str, index: int) -> np.ndarray:
        """(K+1, 2) array of one element's pairs over the whole trace."""
        return self.series(group).reshape(len(self.times), -1, 2)[:, index].copy()

    def csv_header(self) -> list[str]:
        """Column names of `write_csv`: t, then the layout of `CircuitState.x`."""
        g, pair = self.graph, {"G": ("v", "i"), "C": ("v", "q"), "L": ("psi", "i")}
        return (["t"] + [f"phi_{nd}" for nd in g.non_ground_nodes]
                + [f"{a}_{e.name}" for group in "GCL" for e in g.groups[group] for a in pair[group]]
                + [f"i_{e.name}" for e in g.groups["V"]])

    def write_csv(self, path) -> None:
        """One row per time: t, then x, each as "%.17g" (round-trip exact)."""
        line = ",".join(["%.17g"] * (1 + self.x.shape[1])) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            fh.writelines(line % tuple(row)
                          for row in np.column_stack([self.times, self.x]).tolist())


def march(graph: CircuitGraph, config: TransientConfig, state0: CircuitState,
          warm, step) -> TransientTrace:
    """March one implicit solver over the configured time grid.

    Capacitor and inductor laws are discretised in companion form: the rates
    are qdot = alpha * q - rhs_c and psidot = alpha * psi - rhs_l.  Backward
    Euler has alpha = 1/h and rhs = alpha * q_n, so qdot = (q - q_n) / h.  The
    trapezoidal rule has alpha = 2/h and rhs = alpha * q_n + qdot_n, so
    qdot = (2/h)(q - q_n) - qdot_n, and it needs the rates at t0: they come
    from one backward-Euler step of h/100 from the initial warm start, which
    that step does not advance.

    `state0` is the consistent state at t0 and `warm` the solver's warm start.
    `step(warm, t, alpha, rhs_c, rhs_l)` solves one step at time t and returns
    (its state's x, next warm start, iterations, converged, per-step record);
    step k's x becomes row k of a state array allocated before the first
    step, and y = (q_c, psi_l) is taken from that row.  `rhs_c`/`rhs_l` are
    views of one right-hand side, rewritten for the next step; backward
    Euler's rates are taken after the last step, as no step reads them.
    """
    trapezoidal, steps, h = config.scheme == "trapezoidal", config.steps, config.h
    lay, n_c = state0._lay, graph.count("C")
    positions = np.arange(lay["size"])
    reactive = np.concatenate([positions[lay["q_c"]], positions[lay["psi_l"]]])
    y, ydot = state0.x.take(reactive), np.zeros((steps + 1, len(reactive)))
    x = np.empty((steps + 1, lay["size"]))  # the state array: row k at times[k]
    x[0] = state0.x
    if trapezoidal:
        h_b = h / 100.0
        alpha_b = 1.0 / h_b
        rhs = alpha_b * y
        x_b, *_ = step(warm, config.t0 + h_b, alpha_b, rhs[:n_c], rhs[n_c:])
        ydot[0] = (x_b.take(reactive) - y) / h_b

    alpha, times = 2.0 / h if trapezoidal else 1.0 / h, config.times()
    rate, details = ydot[0], [None]
    iters, converged = np.zeros(steps + 1, dtype=int), np.ones(steps + 1, dtype=bool)
    rhs = np.empty(len(reactive))  # each step's right-hand side, rewritten in place
    rhs_c, rhs_l = rhs[:n_c], rhs[n_c:]
    for k, t in enumerate(times[1:].tolist(), 1):
        np.multiply(y, alpha, out=rhs)
        if trapezoidal:
            rhs += rate
        x[k], warm, iters[k], converged[k], detail = step(warm, t, alpha, rhs_c, rhs_l)
        details.append(detail)
        y_new = x[k].take(reactive)
        if trapezoidal:
            ydot[k] = rate = alpha * (y_new - y) - rate
        y = y_new
    if not trapezoidal:
        y_all = x[:, reactive]
        ydot[1:] = (y_all[1:] - y_all[:-1]) / h
    return TransientTrace(graph=graph, times=times, x=x, ydot=ydot, iterations=iters,
                          converged=converged, step_details=details)
