"""Shared circuit-state containers and the time march of the transient solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .netlist import CircuitGraph


@dataclass
class CircuitState:
    """Full per-step circuit state: node potentials plus per-element pairs."""

    phi: np.ndarray    # (n-1,) node potentials relative to ground
    v_g: np.ndarray    # per G-element voltage
    i_g: np.ndarray    # per G-element current
    v_c: np.ndarray    # per capacitor voltage
    q_c: np.ndarray    # per capacitor charge
    psi_l: np.ndarray  # per inductor flux
    i_l: np.ndarray    # per inductor current
    i_v: np.ndarray    # per voltage-source current

    @classmethod
    def zeros(cls, graph: CircuitGraph) -> "CircuitState":
        return cls(
            phi=np.zeros(graph.n - 1),
            v_g=np.zeros(graph.count("G")),
            i_g=np.zeros(graph.count("G")),
            v_c=np.zeros(graph.count("C")),
            q_c=np.zeros(graph.count("C")),
            psi_l=np.zeros(graph.count("L")),
            i_l=np.zeros(graph.count("L")),
            i_v=np.zeros(graph.count("V")),
        )

    def copy(self) -> "CircuitState":
        return CircuitState(**{k: np.array(v) for k, v in vars(self).items()})

    def pair(self, group: str, index: int) -> np.ndarray:
        """Element measurement-space pair: (v,i) for G, (v,q) for C, (psi,i) for L."""
        if group == "G":
            return np.array([self.v_g[index], self.i_g[index]])
        if group == "C":
            return np.array([self.v_c[index], self.q_c[index]])
        if group == "L":
            return np.array([self.psi_l[index], self.i_l[index]])
        raise KeyError(group)

    def set_pair(self, group: str, index: int, pair) -> None:
        a, b = float(pair[0]), float(pair[1])
        if group == "G":
            self.v_g[index], self.i_g[index] = a, b
        elif group == "C":
            self.v_c[index], self.q_c[index] = a, b
        elif group == "L":
            self.psi_l[index], self.i_l[index] = a, b
        else:
            raise KeyError(group)


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
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
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
        return np.array([s.pair(group, index) for s in self.states])

    def csv_header(self) -> list[str]:
        cols = ["t"] + [f"phi_{nd}" for nd in self.graph.non_ground_nodes]
        for group, names in (("G", ("v", "i")), ("C", ("v", "q")), ("L", ("psi", "i"))):
            for e in self.graph.groups[group]:
                cols += [f"{names[0]}_{e.name}", f"{names[1]}_{e.name}"]
        cols += [f"i_{e.name}" for e in self.graph.groups["V"]]
        return cols

    def write_csv(self, path) -> None:
        rows = []
        for t, s in zip(self.times, self.states):
            row = [t, *s.phi]
            for g in "GCL":
                for j in range(self.graph.count(g)):
                    row.extend(s.pair(g, j))
            row.extend(s.i_v)
            rows.append(row)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.csv_header()) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


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
    (state, next warm start, iterations, converged, per-step record).
    """
    trapezoidal = config.scheme == "trapezoidal"
    q, psi = state0.q_c, state0.psi_l
    qdot = psidot = None
    if trapezoidal:
        h_b = config.h / 100.0
        alpha_b = 1.0 / h_b
        s, *_ = step(warm, config.t0 + h_b, alpha_b, alpha_b * q, alpha_b * psi)
        qdot, psidot = (s.q_c - q) / h_b, (s.psi_l - psi) / h_b

    alpha = 2.0 / config.h if trapezoidal else 1.0 / config.h
    times = config.times()
    states = [state0]
    iters = np.zeros(config.steps + 1, dtype=int)
    converged = np.ones(config.steps + 1, dtype=bool)
    details: list = [None]
    rates = [None if qdot is None else (qdot, psidot)]
    for k in range(1, config.steps + 1):
        rhs_c, rhs_l = alpha * q, alpha * psi
        if trapezoidal:
            rhs_c, rhs_l = rhs_c + qdot, rhs_l + psidot
        s, warm, iters[k], converged[k], detail = step(warm, times[k], alpha, rhs_c, rhs_l)
        states.append(s)
        details.append(detail)
        if trapezoidal:
            qdot = alpha * (s.q_c - q) - qdot
            psidot = alpha * (s.psi_l - psi) - psidot
        else:
            qdot, psidot = (s.q_c - q) / config.h, (s.psi_l - psi) / config.h
        rates.append((qdot, psidot))
        q, psi = s.q_c, s.psi_l
    return TransientTrace(graph=graph, times=times, states=states, iterations=iters,
                          converged=converged, step_details=details, rates=rates)
