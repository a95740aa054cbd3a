"""Netlist parsing and reduced incidence matrix construction.

Grammar (line oriented, '#' comments, case-insensitive keywords):

    V<name> <n+> <n-> DC <volts>
    V<name> <n+> <n-> SIN <offset> <amplitude> <freq_hz>
    I<name> <n+> <n-> DC <amps>
    R<name> <n+> <n-> <ohms>                      | R<name> <n+> <n-> DATA <csv>
    C<name> <n+> <n-> <farads>
        | C<name> <n+> <n-> MODEL mlcc(<C0>,<Cinf>,<v0>)
        | C<name> <n+> <n-> DATA <csv>
    L<name> <n+> <n-> <henries>                   | L<name> <n+> <n-> DATA <csv>
    D<name> <n+> <n-> MODEL shockley(<i_s>,<n>,<v_T>,<R_series>)
        | D<name> <n+> <n-> DATA <csv>

Node `0` is ground.  Diodes are static v-i elements and share the resistor
(G) incidence group.  Positive element current flows from node_pos to
node_neg through the element.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    LinearModel,
    MlccCapacitorModel,
    ShockleyDiodeModel,
    SourceWaveform,
)

KINDS = ("resistor", "capacitor", "inductor", "vsource", "isource", "diode")

# Incidence group of each element kind.
GROUP_OF_KIND = {
    "resistor": "G",
    "diode": "G",
    "capacitor": "C",
    "inductor": "L",
    "vsource": "V",
    "isource": "I",
}


class NetlistError(ValueError):
    """Netlist syntax or validation error."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class DataRef:
    """Reference to a measurement CSV file backing a data-driven element."""

    path: str


@dataclass(frozen=True)
class ElementDecl:
    name: str
    kind: str
    node_pos: str
    node_neg: str
    payload: object = None  # model instance or DataRef (passive elements)
    waveform: SourceWaveform | None = None  # sources only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise NetlistError(f"unknown element kind {self.kind!r}")
        if self.node_pos == self.node_neg:
            raise NetlistError(f"element {self.name}: node_pos equals node_neg ({self.node_pos})")
        if self.kind in ("vsource", "isource"):
            if self.waveform is None or self.payload is not None:
                raise NetlistError(f"source {self.name} must carry a waveform only")
        else:
            if self.payload is None or self.waveform is not None:
                raise NetlistError(
                    f"passive element {self.name} needs exactly one model or dataset reference")


@dataclass
class CircuitGraph:
    """Validated circuit: node ordering plus elements grouped by incidence kind."""

    nodes: list[str]  # ground first, then non-ground nodes in appearance order
    elements: list[ElementDecl]  # declaration order
    ground: str = "0"
    groups: dict = field(default_factory=dict)  # "G"/"C"/"L"/"V"/"I" -> list[ElementDecl]

    def __post_init__(self):
        if not self.groups:
            self.groups = {g: [e for e in self.elements if GROUP_OF_KIND[e.kind] == g]
                           for g in "GCLVI"}

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def non_ground_nodes(self) -> list[str]:
        return [nd for nd in self.nodes if nd != self.ground]

    def count(self, group: str) -> int:
        return len(self.groups[group])

    def __eq__(self, other):
        return (isinstance(other, CircuitGraph)
                and self.nodes == other.nodes
                and self.elements == other.elements)


@dataclass(frozen=True)
class IncidenceSet:
    """Reduced incidence matrices; rows follow CircuitGraph.non_ground_nodes."""

    a_g: np.ndarray
    a_c: np.ndarray
    a_l: np.ndarray
    a_v: np.ndarray
    a_i: np.ndarray


_MODEL_RE = re.compile(r"^(?P<name>\w+)\((?P<args>[^()]*)\)$")


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise NetlistError(f"invalid {what} {token!r}", lineno) from None


def _parse_model_clause(text: str, lineno: int):
    m = _MODEL_RE.match(text)
    if not m:
        raise NetlistError(f"malformed MODEL clause {text!r}", lineno)
    name = m.group("name").lower()
    args = [_parse_float(a.strip(), lineno, "model parameter")
            for a in m.group("args").split(",") if a.strip()]
    if name == "mlcc":
        if len(args) != 3:
            raise NetlistError("mlcc model takes (C0, Cinf, v0)", lineno)
        return MlccCapacitorModel(*args)
    if name == "shockley":
        if len(args) != 4:
            raise NetlistError("shockley model takes (i_s, n, v_T, R_series)", lineno)
        return ShockleyDiodeModel(*args)
    raise NetlistError(f"unknown model {name!r}", lineno)


def _parse_line(lineno: int, tokens: list[str], raw: str) -> ElementDecl:
    name = tokens[0]
    prefix = name[0].upper()
    kind = {"V": "vsource", "I": "isource", "R": "resistor",
            "C": "capacitor", "L": "inductor", "D": "diode"}.get(prefix)
    if kind is None:
        raise NetlistError(f"unknown element kind for {name!r}", lineno)
    if len(tokens) < 4:
        raise NetlistError(f"too few fields in {raw!r}", lineno)
    npos, nneg = tokens[1], tokens[2]
    rest = tokens[3:]
    keyword = rest[0].upper()

    try:
        if kind == "vsource":
            if keyword == "DC" and len(rest) == 2:
                wf = SourceWaveform("DC", dc_value=_parse_float(rest[1], lineno, "DC value"))
            elif keyword == "SIN" and len(rest) == 4:
                off, amp, freq = (_parse_float(x, lineno, "SIN parameter") for x in rest[1:])
                wf = SourceWaveform("SIN", offset=off, amplitude=amp, frequency_hz=freq)
            else:
                raise NetlistError(f"voltage source {name}: expected DC <v> or SIN <off> <amp> <f>",
                                   lineno)
            return ElementDecl(name, kind, npos, nneg, waveform=wf)

        if kind == "isource":
            if keyword != "DC" or len(rest) != 2:
                raise NetlistError(f"current source {name}: expected DC <amps>", lineno)
            wf = SourceWaveform("DC", dc_value=_parse_float(rest[1], lineno, "DC value"))
            return ElementDecl(name, kind, npos, nneg, waveform=wf)

        if keyword == "DATA":
            if len(rest) != 2:
                raise NetlistError(f"{name}: DATA clause takes one csv path", lineno)
            return ElementDecl(name, kind, npos, nneg, payload=DataRef(rest[1]))

        if keyword == "MODEL":
            if kind not in ("capacitor", "diode"):
                raise NetlistError(f"{name}: MODEL clause not supported for {kind}", lineno)
            model = _parse_model_clause("".join(rest[1:]), lineno)
            if kind == "capacitor" and not isinstance(model, MlccCapacitorModel):
                raise NetlistError(f"{name}: capacitor MODEL must be mlcc(...)", lineno)
            if kind == "diode" and not isinstance(model, ShockleyDiodeModel):
                raise NetlistError(f"{name}: diode MODEL must be shockley(...)", lineno)
            return ElementDecl(name, kind, npos, nneg, payload=model)

        if kind == "diode":
            raise NetlistError(f"diode {name}: expected MODEL shockley(...) or DATA <csv>", lineno)
        if len(rest) != 1:
            raise NetlistError(f"{name}: expected a single value, MODEL or DATA clause", lineno)
        value = _parse_float(rest[0], lineno, f"{kind} value")
        if kind == "resistor":
            model = LinearModel("G", 1.0 / value) if value > 0 else None
            if model is None:
                raise NetlistError(f"resistor {name}: resistance must be positive", lineno)
        elif kind == "capacitor":
            model = LinearModel("C", value)
        else:
            model = LinearModel("L", value)
        return ElementDecl(name, kind, npos, nneg, payload=model)
    except NetlistError:
        raise
    except ValueError as exc:  # model invariant violations
        raise NetlistError(str(exc), lineno) from None


def parse_netlist(text: str) -> CircuitGraph:
    """Parse netlist source into a validated CircuitGraph (ground node '0')."""
    elements: list[ElementDecl] = []
    names: dict[str, int] = {}
    node_order: list[str] = []
    seen_nodes: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            decl = _parse_line(lineno, tokens, raw)
        except NetlistError as exc:
            if exc.line is None:
                raise NetlistError(str(exc), lineno) from None
            raise
        if decl.name in names:
            raise NetlistError(f"duplicate element name {decl.name!r} "
                               f"(first declared on line {names[decl.name]})", lineno)
        names[decl.name] = lineno
        elements.append(decl)
        for nd in (decl.node_pos, decl.node_neg):
            if nd not in seen_nodes:
                seen_nodes.add(nd)
                node_order.append(nd)

    if not elements:
        raise NetlistError("empty netlist")
    if "0" not in seen_nodes:
        raise NetlistError("missing ground node '0'")

    # Connectivity to ground through element paths.
    adjacency: dict[str, set[str]] = {nd: set() for nd in seen_nodes}
    for e in elements:
        adjacency[e.node_pos].add(e.node_neg)
        adjacency[e.node_neg].add(e.node_pos)
    reached = {"0"}
    frontier = ["0"]
    while frontier:
        for nb in adjacency[frontier.pop()]:
            if nb not in reached:
                reached.add(nb)
                frontier.append(nb)
    dangling = [nd for nd in node_order if nd not in reached]
    if dangling:
        raise NetlistError(f"nodes disconnected from ground: {', '.join(dangling)}")

    nodes = ["0"] + [nd for nd in node_order if nd != "0"]
    return CircuitGraph(nodes=nodes, elements=elements)


def serialize_netlist(graph: CircuitGraph) -> str:
    """Render a CircuitGraph back to netlist text; re-parsing yields an equal graph."""
    lines = []
    for e in graph.elements:
        head = f"{e.name} {e.node_pos} {e.node_neg}"
        if e.kind == "vsource":
            wf = e.waveform
            tail = (f"DC {wf.dc_value!r}" if wf.kind == "DC"
                    else f"SIN {wf.offset!r} {wf.amplitude!r} {wf.frequency_hz!r}")
        elif e.kind == "isource":
            tail = f"DC {e.waveform.dc_value!r}"
        elif isinstance(e.payload, DataRef):
            tail = f"DATA {e.payload.path}"
        elif isinstance(e.payload, MlccCapacitorModel):
            m = e.payload
            tail = f"MODEL mlcc({m.c0!r},{m.cinf!r},{m.v0!r})"
        elif isinstance(e.payload, ShockleyDiodeModel):
            m = e.payload
            tail = f"MODEL shockley({m.i_s!r},{m.n_ideality!r},{m.v_t!r},{m.r_series!r})"
        elif e.kind == "resistor":
            tail = repr(1.0 / e.payload.value)
        else:
            tail = repr(e.payload.value)
        lines.append(f"{head} {tail}")
    return "\n".join(lines) + "\n"


def build_incidence(graph: CircuitGraph) -> IncidenceSet:
    """Reduced incidence matrices; column j of A_X is element j of group X."""
    row_of = {nd: i for i, nd in enumerate(graph.non_ground_nodes)}
    mats = {}
    for group in "GCLVI":
        elems = graph.groups[group]
        a = np.zeros((graph.n - 1, len(elems)))
        for j, e in enumerate(elems):
            if e.node_pos != graph.ground:
                a[row_of[e.node_pos], j] = 1.0
            if e.node_neg != graph.ground:
                a[row_of[e.node_neg], j] = -1.0
        mats[group] = a
    return IncidenceSet(a_g=mats["G"], a_c=mats["C"], a_l=mats["L"],
                        a_v=mats["V"], a_i=mats["I"])
