"""Seeded inputs for the benchmark workloads.

Every workload run is a list of cases.  Case j of seed s perturbs each passive
element value of the workload's nominal netlists by an independent uniform
factor drawn from ``numpy.random.default_rng([s, j])``; seed 0 leaves every
netlist at its nominal text, byte for byte.  The program under test only ever
sees the resulting netlist text (and the measurement sets synthesized from it
by its own ``synthesize_datasets``).
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from ddmna.scenarios import SCENARIOS, Scenario

# Criterion 01's series RC circuit, verbatim.
RC_NETLIST = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"

LADDER_STAGES = 25
LADDER_R = 100.0
LADDER_C = 1e-7

# Relative half-widths of the per-seed perturbation.
REL_LADDER = 0.2
REL_DEFAULT = 0.1

# Which parameters of a MODEL clause are element values (perturbed).  The
# diode's ideality factor and thermal voltage are junction physics, and the
# MLCC roll-off voltage is a shape parameter, so they stay nominal.
_MODEL_VALUE_ARGS = {"shockley": (0, 3), "mlcc": (0, 1)}
_MODEL_RE = re.compile(r"^(?P<head>.*MODEL\s+)(?P<name>\w+)\((?P<args>[^()]*)\)\s*$",
                       re.IGNORECASE)


def ladder_netlist(stages: int = LADDER_STAGES) -> str:
    """Nominal RC ladder: a 1 V, 1 kHz SIN source and `stages` series-R / shunt-C stages."""
    lines = ["V1 1 0 SIN 0 1 1000"]
    for k in range(1, stages + 1):
        lines.append(f"R{k} {k} {k + 1} {LADDER_R!r}")
        lines.append(f"C{k} {k + 1} 0 {LADDER_C!r}")
    return "\n".join(lines) + "\n"


def case_rng(seed: int, case: int) -> np.random.Generator | None:
    """Generator for one case, or None for seed 0 (nominal circuits)."""
    if seed < 0 or case < 0:
        raise ValueError("seed and case must be non-negative")
    return None if seed == 0 else np.random.default_rng([seed, case])


def perturb_netlist(text: str, rng: np.random.Generator | None, rel: float) -> str:
    """Scale every passive element value by a factor in [1 - rel, 1 + rel].

    Source lines, comments and node names are kept; with ``rng=None`` the text
    is returned unchanged.  Lines are visited in order, so the draw sequence
    is fixed by the netlist text.
    """
    if rng is None:
        return text
    out = []
    for line in text.splitlines():
        tokens = line.split()
        kind = tokens[0][0].upper() if tokens else ""
        if kind in ("R", "C", "L", "D"):
            m = _MODEL_RE.match(line)
            if m:
                name = m.group("name").lower()
                args = [a.strip() for a in m.group("args").split(",")]
                for i in _MODEL_VALUE_ARGS.get(name, ()):
                    args[i] = repr(float(args[i]) * rng.uniform(1.0 - rel, 1.0 + rel))
                line = f"{m.group('head')}{m.group('name')}({','.join(args)})"
            elif kind == "D" or len(tokens) != 4:
                raise ValueError(f"no element value to perturb in {line!r}")
            else:
                value = float(tokens[3]) * rng.uniform(1.0 - rel, 1.0 + rel)
                line = " ".join(tokens[:3] + [repr(value)])
        out.append(line)
    return "\n".join(out) + "\n"


@dataclasses.dataclass(frozen=True)
class CellCase:
    """One data-driven cell: a scenario (netlist included) and its data size."""

    scenario: Scenario
    n_total: int


@dataclasses.dataclass(frozen=True)
class ReferenceCase:
    """One batch of the reference workload: netlist text per circuit."""

    rc: str
    ladder: str
    rc_nonlinear: str
    rectifier: str


def rectifier_case(seed: int, case: int) -> CellCase:
    """The paper's rectifier cell with D1 bound to 1e5 pairs, cut to its first 20 steps.

    The step size is the built-in scenario's (400 steps over 20 ms); the window
    ends at 1 ms and holds the diode turn-on.
    """
    base = SCENARIOS["rectifier"]
    net = perturb_netlist(base.netlist, case_rng(seed, case), REL_DEFAULT)
    return CellCase(dataclasses.replace(base, netlist=net, steps=20, t_end=1e-3), 100_000)


def ladder_case(seed: int, case: int) -> CellCase:
    """Ladder-25: every R bound to 1000 pairs (constant weight), every C known.

    The step size is 20 us (100 steps over 2 ms); the window is the first 4 steps.
    The probe is R1, the current the source delivers: over 4 steps its rms
    varies about half as much from circuit to circuit as C1's (coefficient of
    variation 0.17 against 0.29 over 30 cases), and it is twice as large.
    """
    net = perturb_netlist(ladder_netlist(), case_rng(seed, case), REL_LADDER)
    scenario = Scenario(
        name="ladder-25", netlist=net,
        dd_names=tuple(f"R{k}" for k in range(1, LADDER_STAGES + 1)),
        scheme="trapezoidal", steps=4, t_end=8e-5, metric_element="R1",
        weight_rule="constant")
    return CellCase(scenario, 1000 * LADDER_STAGES)


def reference_case(seed: int, case: int) -> ReferenceCase:
    """All circuits of one reference batch, drawn from one case generator."""
    rng = case_rng(seed, case)
    return ReferenceCase(
        rc=perturb_netlist(RC_NETLIST, rng, REL_DEFAULT),
        ladder=perturb_netlist(ladder_netlist(), rng, REL_LADDER),
        rc_nonlinear=perturb_netlist(SCENARIOS["rc-nonlinear"].netlist, rng, REL_DEFAULT),
        rectifier=perturb_netlist(SCENARIOS["rectifier"].netlist, rng, REL_DEFAULT),
    )
