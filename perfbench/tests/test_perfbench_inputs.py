"""The seeded input generator: same seed, same bytes; seed 0, nominal circuits."""

import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_inputs as inputs  # noqa: E402
from ddmna.netlist import build_incidence, parse_netlist  # noqa: E402
from ddmna.reference import run_transient_traditional  # noqa: E402
from ddmna.scenarios import SCENARIOS, build_scenario, synthesize_datasets  # noqa: E402
from ddmna.state import TransientConfig  # noqa: E402

CRITERION_01_RC = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"
NUMBER = re.compile(r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?")


def _datasets(case):
    sc = case.scenario
    graph, inc, known = build_scenario(sc)
    cfg = TransientConfig(scheme=sc.scheme, t_end=sc.t_end, steps=sc.steps)
    trad = run_transient_traditional(graph, inc, known, cfg)
    return [b.data.pairs.tobytes() for b in
            synthesize_datasets(sc, graph, known, trad, case.n_total) if b.mode == "data"]


@pytest.mark.parametrize("make", [inputs.rectifier_case, inputs.ladder_case])
def test_same_seed_gives_identical_netlist_and_data(make):
    a, b = make(7, 3), make(7, 3)
    assert a.scenario.netlist == b.scenario.netlist
    data_a, data_b = _datasets(a), _datasets(b)
    assert data_a and data_a == data_b
    assert make(8, 3).scenario.netlist != a.scenario.netlist
    assert make(7, 4).scenario.netlist != a.scenario.netlist


def test_reference_case_is_deterministic():
    assert inputs.reference_case(5, 1) == inputs.reference_case(5, 1)
    assert inputs.reference_case(5, 1) != inputs.reference_case(5, 2)


@pytest.mark.parametrize("case", [0, 3])
def test_seed_zero_reproduces_nominal_circuits(case):
    assert inputs.rectifier_case(0, case).scenario.netlist == SCENARIOS["rectifier"].netlist
    assert inputs.ladder_case(0, case).scenario.netlist == inputs.ladder_netlist()
    ref = inputs.reference_case(0, case)
    assert ref.rc == CRITERION_01_RC
    assert ref.rc_nonlinear == SCENARIOS["rc-nonlinear"].netlist
    assert ref.rectifier == SCENARIOS["rectifier"].netlist
    assert ref.ladder == inputs.ladder_netlist()


def _values(text):
    """Per line: element name and every number after the node fields."""
    out = {}
    for line in text.splitlines():
        name, _, _, rest = line.split(maxsplit=3)
        out[name] = [float(x) for x in NUMBER.findall(rest)]
    return out


@pytest.mark.parametrize("nominal, rel", [
    (SCENARIOS["rectifier"].netlist, inputs.REL_DEFAULT),
    (SCENARIOS["rc-nonlinear"].netlist, inputs.REL_DEFAULT),
    (inputs.ladder_netlist(), inputs.REL_LADDER),
])
def test_perturbation_stays_within_its_range(nominal, rel):
    got = _values(inputs.perturb_netlist(nominal, inputs.case_rng(11, 0), rel))
    want = _values(nominal)
    assert got.keys() == want.keys()
    moved = 0
    for name, nominal_values in want.items():
        for g, w in zip(got[name], nominal_values):
            if name.startswith(("V", "I")):
                assert g == w
            else:
                assert (1 - rel) * w <= g <= (1 + rel) * w
                moved += g != w
    assert moved >= 2
    build_incidence(parse_netlist(inputs.perturb_netlist(nominal, inputs.case_rng(11, 0), rel)))
