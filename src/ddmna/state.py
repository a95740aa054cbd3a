"""Shared circuit-state containers for the transient solvers."""

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
class HistoryState:
    """Charges/fluxes (and their rates, trapezoidal only) carried between steps."""

    q_c: np.ndarray
    psi_l: np.ndarray
    qdot_c: np.ndarray | None = None
    psidot_l: np.ndarray | None = None


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
