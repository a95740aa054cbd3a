"""The circuit state's one-vector layout: trace.csv rows, field views, copies."""

import csv

import numpy as np

from ddmna.dataset import bindings_from_graph
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import run_transient_traditional
from ddmna.state import CircuitState, TransientConfig

NET = ("V1 1 0 SIN 0 1 1000\nV2 4 0 DC 0.5\nR1 1 2 100\nR2 3 4 50\n"
       "C1 2 0 1e-6\nC2 3 0 2e-6\nL1 2 3 1e-3\n")
FIELDS = ("phi", "v_g", "i_g", "v_c", "q_c", "psi_l", "i_l", "i_v")


def _trace():
    graph = parse_netlist(NET)
    cfg = TransientConfig(scheme="trapezoidal", t_end=2e-3, steps=20)
    return run_transient_traditional(graph, build_incidence(graph),
                                     bindings_from_graph(graph), cfg)


def test_trace_csv_rows_are_t_then_x(tmp_path):
    trace = _trace()
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == trace.csv_header()
    assert len(rows) == len(trace.states)
    for t, s, row in zip(trace.times, trace.states, rows):
        assert [float(v) for v in row] == [t, *s.x]
        # each named column holds the field it names
        by_name = dict(zip(header, map(float, row)))
        graph = trace.graph
        assert [by_name[f"phi_{nd}"] for nd in graph.non_ground_nodes] == s.phi.tolist()
        for group, (a, b), (fa, fb) in (("G", ("v", "i"), ("v_g", "i_g")),
                                        ("C", ("v", "q"), ("v_c", "q_c")),
                                        ("L", ("psi", "i"), ("psi_l", "i_l"))):
            names = [e.name for e in graph.groups[group]]
            assert [by_name[f"{a}_{n}"] for n in names] == getattr(s, fa).tolist()
            assert [by_name[f"{b}_{n}"] for n in names] == getattr(s, fb).tolist()
            assert s.pairs(group).tolist() == \
                [[by_name[f"{a}_{n}"], by_name[f"{b}_{n}"]] for n in names]
        assert [by_name[f"i_{e.name}"] for e in graph.groups["V"]] == s.i_v.tolist()


def test_fields_and_pairs_are_views_of_x():
    s = _trace().states[-1]
    for name in FIELDS:
        assert np.shares_memory(getattr(s, name), s.x)
    for group in ("G", "C", "L", None):
        assert np.shares_memory(s.pairs(group), s.x)
    assert s.pairs().tolist() == s.pairs("G").tolist() + s.pairs("C").tolist() \
        + s.pairs("L").tolist()

    s.x[:] = np.arange(s.x.size)
    assert s.q_c.tolist() == s.pairs("C")[:, 1].tolist()
    s.q_c = [-1.0, -2.0]
    assert s.pairs("C")[:, 1].tolist() == [-1.0, -2.0]
    s.pairs("L")[0] = [7.0, 8.0]
    assert (s.psi_l[0], s.i_l[0]) == (7.0, 8.0)
    s.set_pair("G", 1, [3.0, 4.0])
    assert s.pair("G", 1).tolist() == [3.0, 4.0]


def test_keyword_constructor_and_copy():
    s = _trace().states[-1]
    again = CircuitState(**{name: getattr(s, name) for name in FIELDS})
    assert again.x.tolist() == s.x.tolist()
    assert not np.shares_memory(again.x, s.x)
    c = s.copy()
    assert c.x.tolist() == s.x.tolist()
    before = s.x.copy()
    c.x += 1.0
    c.q_c = [0.0, 0.0]
    assert s.x.tolist() == before.tolist()
