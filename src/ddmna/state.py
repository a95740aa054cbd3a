"""Shared circuit-state containers and the time march of the transient solvers.

A `CircuitState` is one float vector `x`, laid out like a `trace.csv` row
after `t`: node potentials phi; one pair per element, (v, i) per G element,
(v, q) per capacitor, (psi, i) per inductor; voltage-source currents i_v.
The pairs are one contiguous block, which `pairs()` views as an (n, 2)
array; the eight named fields are views of `x` too.  A solver builds its
states as one exact lift of its solution vector (`CircuitState.lifter`).
"""

from __future__ import annotations

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
    def lifter(cls, diff, phi, v_g, i_g, v_c, q_c, psi_l, i_l, i_v):
        """A function (src, *tail) -> CircuitState that takes each field from
        the given positions of [src, diff @ src[:k], *tail], k = diff's column
        count, with one gather.  With diff a stack of transposed incidence
        matrices, every entry is one entry of src or of tail, copied as it is,
        or one potential difference: an exact lift of src."""
        template = cls(phi, v_g, i_g, v_c, q_c, psi_l, i_l, i_v)
        index, lay, k = template.x.astype(np.intp), template._lay, diff.shape[1]
        return lambda src, *tail: cls._of(
            np.concatenate([src, diff.dot(src[:k]), *tail]).take(index), lay)

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


@dataclass
class TransientTrace:
    """Time series of circuit states with per-step solver diagnostics."""

    graph: CircuitGraph
    times: np.ndarray
    states: list[CircuitState]
    iterations: np.ndarray          # per step (index 0 unused, kept 0)
    converged: np.ndarray           # bool per step
    step_details: list = field(default_factory=list)  # solver-specific per-step records
    # per step (qdot_c, psidot_l) the step solved for; index 0 holds the
    # trapezoidal bootstrap rates (None under backward Euler)
    rates: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.states) != len(self.times):
            raise ValueError("trace length mismatch")

    def pairs(self, group: str, index: int) -> np.ndarray:
        """(K+1, 2) array of one element's pairs over the whole trace."""
        return np.array([s.pairs(group)[index] for s in self.states])

    def csv_header(self) -> list[str]:
        """Column names of `write_csv`: t, then the layout of `CircuitState.x`."""
        cols = ["t"] + [f"phi_{nd}" for nd in self.graph.non_ground_nodes]
        for group, names in (("G", ("v", "i")), ("C", ("v", "q")), ("L", ("psi", "i"))):
            for e in self.graph.groups[group]:
                cols += [f"{names[0]}_{e.name}", f"{names[1]}_{e.name}"]
        cols += [f"i_{e.name}" for e in self.graph.groups["V"]]
        return cols

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for t, s in zip(self.times, self.states):
                fh.write(",".join(f"{x:.17g}" for x in (t, *s.x.tolist())) + "\n")


def march(graph: CircuitGraph, config: TransientConfig, state0: CircuitState,
          warm, step) -> TransientTrace:
    """March one implicit solver over the configured time grid.

    Capacitor and inductor laws are discretised in companion form: the rates
    are qdot = alpha * q - rhs_c and psidot = alpha * psi - rhs_l.  Backward
    Euler has alpha = 1/h and rhs = alpha * q_n, so qdot = (q - q_n) / h.  The
    trapezoidal rule has alpha = 2/h and rhs = alpha * q_n + qdot_n, so
    qdot = (2/h)(q - q_n) - qdot_n, and it needs the rates at t0: they come
    from one backward-Euler step of h/100 from the initial warm start, which
    that step does not advance.  The march carries the reactive vector
    y = (q_c, psi_l), one gather from each state, so each step takes one
    right-hand side and one rate update, written into its row of one rate
    matrix; `rhs_c`/`rhs_l` and the recorded rates are views of the
    right-hand side and of that row.

    `state0` is the consistent state at t0 and `warm` the solver's warm start.
    `step(warm, t, alpha, rhs_c, rhs_l)` solves one step at time t and returns
    (state, next warm start, iterations, converged, per-step record).
    """
    trapezoidal = config.scheme == "trapezoidal"
    lay, n_c = state0._lay, graph.count("C")
    positions = np.arange(lay["size"])
    reactive = np.concatenate([positions[lay["q_c"]], positions[lay["psi_l"]]])
    y = state0.x.take(reactive)
    ydot = np.zeros((config.steps + 1, len(reactive)))  # row k: the rates of step k
    if trapezoidal:
        h_b = config.h / 100.0
        alpha_b = 1.0 / h_b
        rhs = alpha_b * y
        s, *_ = step(warm, config.t0 + h_b, alpha_b, rhs[:n_c], rhs[n_c:])
        ydot[0] = (s.x.take(reactive) - y) / h_b

    alpha = 2.0 / config.h if trapezoidal else 1.0 / config.h
    times = config.times()
    states = [state0]
    iters = np.zeros(config.steps + 1, dtype=int)
    converged = np.ones(config.steps + 1, dtype=bool)
    details: list = [None]
    for k in range(1, config.steps + 1):
        rhs = alpha * y
        if trapezoidal:
            rhs += ydot[k - 1]
        s, warm, iters[k], converged[k], detail = step(warm, times[k], alpha,
                                                       rhs[:n_c], rhs[n_c:])
        states.append(s)
        details.append(detail)
        y_new = s.x.take(reactive)
        if trapezoidal:
            ydot[k] = alpha * (y_new - y) - ydot[k - 1]
        else:
            ydot[k] = (y_new - y) / config.h
        y = y_new
    rates = [(rate[:n_c], rate[n_c:]) for rate in ydot]
    if not trapezoidal:
        rates[0] = None
    return TransientTrace(graph=graph, times=times, states=states, iterations=iters,
                          converged=converged, step_details=details, rates=rates)
