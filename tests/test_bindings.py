"""Both solvers resolve and check their bindings through
`dataset.bindings_by_group`, with the same errors."""

import numpy as np
import pytest

from ddmna.dataset import (
    ElementBinding,
    MeasurementSet,
    bindings_by_group,
    bindings_from_graph,
)
from ddmna.ddsolver import run_transient_dd
from ddmna.elements import LinearModel
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import run_transient_traditional
from ddmna.state import TransientConfig

RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"
RLC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nL1 2 3 1e-3\nC1 3 0 1e-6\nR2 3 0 1e4\n"
SOLVERS = {"reference": run_transient_traditional, "data-driven": run_transient_dd}


def _run(solver, bindings):
    graph = parse_netlist(RC_NET)
    SOLVERS[solver](graph, build_incidence(graph), bindings, TransientConfig(t_end=5e-4, steps=5))


def test_the_table_follows_the_incidence_columns():
    graph = parse_netlist(RLC_NET)
    bindings = bindings_from_graph(graph)
    table = bindings_by_group(graph, bindings[::-1])
    assert {group: [b.name for b in table[group]] for group in table} == {
        group: [e.name for e in graph.groups[group]] for group in "GCL"}
    assert all(b is next(c for c in bindings if c.name == b.name)
               for group in "GCL" for b in table[group])


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_missing_binding_is_rejected(solver):
    bindings = [b for b in bindings_from_graph(parse_netlist(RC_NET)) if b.name != "R1"]
    with pytest.raises(ValueError, match="^no binding for element R1$"):
        _run(solver, bindings)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_binding_of_another_group_is_rejected(solver):
    # a capacitor's binding on R1 would otherwise run as a 1e-6 S conductance
    bindings = [ElementBinding("R1", "C", "known", LinearModel("C", 1e-6)) if b.name == "R1"
                else b for b in bindings_from_graph(parse_netlist(RC_NET))]
    with pytest.raises(ValueError, match="^binding group mismatch for R1$"):
        _run(solver, bindings)


def test_the_reference_solver_rejects_a_data_binding():
    data = MeasurementSet("G", np.column_stack([np.linspace(0.0, 1.0, 11),
                                                np.linspace(0.0, 1e-3, 11)]))
    bindings = [ElementBinding("R1", "G", "data", data=data) if b.name == "R1"
                else b for b in bindings_from_graph(parse_netlist(RC_NET))]
    _run("data-driven", bindings)
    with pytest.raises(ValueError, match="^traditional solver needs a model for R1$"):
        _run("reference", bindings)
