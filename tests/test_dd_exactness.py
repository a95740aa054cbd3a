"""The data-driven step as the paper defines it: an exact weighted Kirchhoff
projection, a mismatch that no Kirchhoff half-step raises, and steps that
reach the global minimum of the mismatch (one data element) or a minimum no
single element's move improves (several).  Known elements are constraints of
the projection with no distance term, so it is exact in the data elements'
metric.

The circuits fold every kind of known element: the rectifier (a data diode
beside a known capacitor and resistor), a 25-stage RC ladder (data resistors,
known capacitors) and an RL circuit (a data resistor, a known inductor).  The
same RL circuit with its inductor as data as well covers the data inductor's
alpha-weighted distance.
"""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from ddmna.dataset import ElementBinding, SamplingPlan, bindings_from_graph, generate_measurements
from ddmna.ddsolver import DDConfig, DDSolver, brute_force_timestep, run_transient_dd
from ddmna.netlist import build_incidence, parse_netlist, sources
from ddmna.reference import kcl_residual, run_transient_traditional
from ddmna.scenarios import SCENARIOS, Scenario, build_scenario, run_cell, synthesize_datasets
from ddmna.state import CircuitState, TransientConfig, march

LADDER_STAGES = 25


def _ladder_netlist() -> str:
    lines = ["V1 1 0 SIN 0 1 1000"]
    for k in range(1, LADDER_STAGES + 1):
        lines.append(f"R{k} {k} {k + 1} 100.0")
        lines.append(f"C{k} {k + 1} 0 1e-07")
    return "\n".join(lines) + "\n"


CIRCUITS = {
    "rectifier": (SCENARIOS["rectifier"], 1000),
    "ladder-25": (Scenario(
        name="ladder-25", netlist=_ladder_netlist(),
        dd_names=tuple(f"R{k}" for k in range(1, LADDER_STAGES + 1)),
        scheme="trapezoidal", steps=20, t_end=4e-4, metric_element="R1"),
        1000 * LADDER_STAGES),
    "rl": (Scenario(
        name="rl", netlist="V1 1 0 SIN 0 1 1000\nR1 1 2 10\nL1 2 0 1e-3\n",
        dd_names=("R1",), scheme="trapezoidal", steps=200, t_end=2e-3,
        metric_element="R1"), 1000),
    "rl-data": (Scenario(
        name="rl-data", netlist="V1 1 0 SIN 0 1 1000\nR1 1 2 10\nL1 2 0 1e-3\n",
        dd_names=("R1", "L1"), scheme="trapezoidal", steps=200, t_end=2e-3,
        metric_element="R1"), 1000),
}


def _setup(name):
    scenario, n = CIRCUITS[name]
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scenario.scheme, t_end=scenario.t_end, steps=scenario.steps)
    trad = run_transient_traditional(graph, inc, known, cfg)
    return scenario, graph, inc, cfg, synthesize_datasets(scenario, graph, known, trad, n)


def _state(solver, u) -> CircuitState:
    """State of the unknown vector u = (phi, i_g, q_c, i_l, psi_l, i_v)."""
    parts = np.split(u, np.cumsum([solver.nphi, solver.n_g, solver.n_c,
                                   solver.n_l, solver.n_l]))
    phi, i_g, q_c, i_l, psi_l, i_v = parts
    return CircuitState(phi=phi, v_g=solver.inc.a_g.T @ phi, i_g=i_g,
                        v_c=solver.inc.a_c.T @ phi, q_c=q_c, psi_l=psi_l,
                        i_l=i_l, i_v=i_v)


def _constraints(solver, alpha):
    """Jacobian of the step's linear constraints over u, independent of the solver's assembler.

    Rows: KCL, the inductor companion law, the voltage sources and one row per
    known element's line, response - slope * drive.
    """
    inc = solver.inc
    nphi, n_g, n_c, n_l, n_v = solver.nphi, solver.n_g, solver.n_c, solver.n_l, solver.n_v
    cols = np.cumsum([0, nphi, n_g, n_c, n_l, n_l, n_v])
    phi, i_g, q_c, i_l, psi, i_v = (slice(a, b) for a, b in zip(cols, cols[1:]))
    rows = []

    def row(n):
        block = np.zeros((n, cols[-1]))
        rows.append(block)
        return block

    kcl = row(nphi)
    kcl[:, i_g], kcl[:, q_c], kcl[:, i_l], kcl[:, i_v] = inc.a_g, alpha * inc.a_c, inc.a_l, inc.a_v
    law = row(n_l)
    law[:, phi], law[:, psi] = inc.a_l.T, -alpha * np.eye(n_l)
    row(n_v)[:, phi] = inc.a_v.T
    for group, response, a_x in (("G", i_g, inc.a_g), ("C", q_c, inc.a_c), ("L", psi, None)):
        for t in solver.known[group]:
            r = row(1)[0]
            r[response.start + t.index] = 1.0
            if a_x is None:
                r[i_l.start + t.index] = -t.slope
            else:
                r[phi] = -t.slope * a_x[:, t.index]
    return np.vstack(rows)


def _cosine(solver, r: CircuitState, d: CircuitState, alpha) -> float:
    """Cosine of the angle between r and d in the data elements' weighted metric,
    the metric the projection minimises (known elements have no distance term).

    The inner product comes from `energy_mismatch` (half the squared norm)
    of copies whose known pairs are zeroed, by polarisation, with d rescaled
    to the norm of r first.
    """
    known = [row for row in range(len(solver.names)) if row not in solver.system.data]
    r, d = r.copy(), d.copy()
    r.pairs()[known] = d.pairs()[known] = 0.0
    zero = CircuitState.zeros(solver.graph)
    e_r = solver.energy_mismatch(r, zero, alpha)
    e_d = solver.energy_mismatch(d, zero, alpha)
    if e_d == 0.0 or e_r == 0.0:
        return 0.0
    scale = np.sqrt(e_r / e_d)
    both = r.copy()
    both.x += scale * d.x
    return (solver.energy_mismatch(both, zero, alpha) - 2.0 * e_r) / (2.0 * e_r)


@pytest.mark.parametrize("name", ["rectifier", "ladder-25", "rl", "rl-data"])
def test_kirchhoff_projection_is_exact(name):
    scenario, graph, inc, cfg, binds = _setup(name)
    solver = DDSolver(graph, inc, binds, DDConfig(weight_rule=scenario.weight_rule))
    alpha = 2.0 / cfg.h
    # Draw scales: a data element's weight, and a known element's tangent
    # slope, so known capacitors and inductors get nonzero history terms.
    scales = np.where(solver.weights > 0, solver.weights, solver.system._slopes())
    w_g, w_c, w_l = np.split(scales, [solver.n_g, solver.n_g + solver.n_c])
    a = _constraints(solver, alpha)
    null = scipy.linalg.null_space(a)
    assert null.shape[1] > 0
    rng = np.random.default_rng(6)
    worst_cos, worst_feas = 0.0, 0.0
    for _ in range(5):
        zx = CircuitState.zeros(graph)
        zx.v_g[:], zx.i_g[:] = rng.normal(size=solver.n_g), w_g * rng.normal(size=solver.n_g)
        zx.v_c[:], zx.q_c[:] = rng.normal(size=solver.n_c), w_c * rng.normal(size=solver.n_c)
        zx.i_l[:], zx.psi_l[:] = rng.normal(size=solver.n_l), w_l * rng.normal(size=solver.n_l)
        rhs_c = alpha * w_c * rng.normal(size=solver.n_c)
        rhs_l = alpha * w_l * rng.normal(size=solver.n_l)
        v_src, i_src = rng.normal(size=solver.n_v), np.zeros(0)
        zo = solver.project_to_kirchhoff(zx, alpha, rhs_c, rhs_l, v_src, i_src)

        worst_feas = max(worst_feas, solver.feasibility_residual(
            zo, alpha, rhs_c, rhs_l, v_src, i_src))
        for group, resp, drive in (("G", zo.i_g, zo.v_g), ("C", zo.q_c, zo.v_c),
                                   ("L", zo.psi_l, zo.i_l)):
            for t in solver.known[group]:
                y = resp[t.index]
                gap = abs(y - t.slope * drive[t.index] - t.offset)
                worst_feas = max(worst_feas, gap / max(abs(y), 1e-30))

        r = zo.copy()
        r.x -= zx.x
        for d in null.T:
            worst_cos = max(worst_cos, abs(_cosine(solver, r, _state(solver, d), alpha)))
    print(f"{name}: null space dim {null.shape[1]}, worst cosine {worst_cos:.3g}, "
          f"worst feasibility {worst_feas:.3g}")
    assert worst_feas <= 1e-10
    assert worst_cos <= 1e-7


@pytest.mark.parametrize("name", ["ladder-25", "rl", "rl-data"])
def test_no_kirchhoff_half_step_raises_mismatch(name, monkeypatch):
    # Under constant weights and linear known elements the feasible set is
    # fixed within a step, so every Kirchhoff state of the step competes
    # with the next projection: the new state must be at least as close.
    scenario, graph, inc, cfg, binds = _setup(name)
    original = DDSolver.project_to_kirchhoff
    last = {}
    rises = []

    def recording(self, zx, alpha, rhs_c, rhs_l, v_src, i_src):
        zo = original(self, zx, alpha, rhs_c, rhs_l, v_src, i_src)
        key = (alpha, rhs_c.tobytes(), rhs_l.tobytes(), v_src.tobytes(), i_src.tobytes())
        if last.get("key") == key:
            before = self.energy_mismatch(last["zo"], zx, alpha)
            after = self.energy_mismatch(zo, zx, alpha)
            rises.append((after - before) / max(before, 1e-300))
        last.update(key=key, zo=zo)
        return zo

    monkeypatch.setattr(DDSolver, "project_to_kirchhoff", recording)
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig(weight_rule="constant"))
    worst = max(rises)
    capped = int(np.count_nonzero(~dd.converged))
    print(f"{name}: {len(rises)} half-steps, worst relative rise {worst:.3g}, "
          f"capped steps {capped}")
    assert worst <= 1e-12
    assert capped == 0


def test_small_n_rectifier_rms_falls_below_one_over_n():
    ns = [100, 300, 1000, 3000, 10000]
    cells = [run_cell("rectifier", "trapezoidal", 400, n) for n in ns]
    rms = [c.rms for c in cells]
    capped = sum(c.stop_reasons.get("cap", 0) for c in cells)
    print(f"rectifier rms={[f'{r:.2e}' for r in rms]} capped steps={capped}")
    assert all(b < a for a, b in zip(rms, rms[1:]))
    assert all(r <= 1.0 / n for r, n in zip(rms, ns))
    assert capped == 0
    # the known C1 and R1 are constraints only, so every step ends on a
    # repeated selection of D1's data
    assert all(c.stop_reasons == {"selection-fixed": 400} for c in cells)


def test_small_n_rc_linear_rms_falls_below_one_over_n():
    # two data elements: every step ends at a selection no single element's
    # move improves, and under constant weights its mismatch never rises
    ns = [100, 1000]
    cells = [run_cell("rc-linear", "trapezoidal", 1000, n) for n in ns]
    rms = [c.rms for c in cells]
    rises = sum(int(np.count_nonzero(np.diff(s.em_history) > 0.0))
                for c in cells for s in c.dd_trace.step_details[1:])
    print(f"rc-linear rms={[f'{r:.2e}' for r in rms]} stops={[c.stop_reasons for c in cells]} "
          f"mismatch rises={rises}")
    assert all(r <= 1.0 / n for r, n in zip(rms, ns))
    assert all(c.stop_reasons == {"selection-fixed": 1000} for c in cells)
    assert rises == 0


def _each_step(scenario, n, inspect, every=1):
    """March a built-in cell with its data at N = n and call
    inspect(solver, trace, step args) after every `every`-th step (the
    trapezoidal rate bootstrap is step 0)."""
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scenario.scheme, t_end=scenario.t_end, steps=scenario.steps)
    trad = run_transient_traditional(graph, inc, known, cfg)
    binds = synthesize_datasets(scenario, graph, known, trad, n)
    solver = DDSolver(graph, inc, binds, DDConfig(weight_rule=scenario.weight_rule))
    calls = itertools.count()

    def step(zx, t, alpha, rhs_c, rhs_l):
        args = (alpha, rhs_c, rhs_l, *sources(graph, t))
        zo, zx, trace = solver.solve_timestep(zx, *args)
        if next(calls) % every == 0:
            inspect(solver, trace, args)
        return zo.x, zx, trace.iterations, trace.converged, trace

    march(graph, cfg, *solver.initial_state(cfg.t0, *cfg.init.resolve(graph)), step)


@pytest.mark.parametrize("name, n", [("rectifier", 100), ("rectifier", 300),
                                     ("rc-nonlinear", 100)])
def test_one_data_element_steps_reach_the_global_minimum(name, n, monkeypatch):
    # With one data element the descent is exact: every step's selection is
    # brute force's, under the weights the step ended with.  The known
    # elements are all linear, so brute force takes one Kirchhoff solve per
    # data index.
    steps, differ, stops, solves = [0], [], set(), set()

    def inspect(solver, trace, args):
        kirchhoff, count = solver.project_to_kirchhoff, [0]

        def counted(*a):
            count[0] += 1
            return kirchhoff(*a)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "project_to_kirchhoff", counted)
            _, combo, best = brute_force_timestep(solver, *args)
        steps[0] += 1
        stops.add(trace.stop_reason)
        solves.add(count[0])
        if trace.selected_indices[-1] != combo:
            differ.append((steps[0], trace.selected_indices[-1], combo,
                           trace.final_mismatch / best))

    _each_step(SCENARIOS[name], n, inspect)
    print(f"{name} N={n}: {steps[0]} steps, stops {stops}, differing {differ[:5]}, "
          f"brute-force solves per step {solves}")
    assert not differ
    assert stops == {"selection-fixed"}
    assert solves == {n}


def _tuple_mismatch(solver, combo, args):
    """The mismatch brute force gives the data tuple combo (linear known elements)."""
    zx = CircuitState.zeros(solver.graph)
    for row, mset, idx in zip(solver.system.data, solver.flat.msets, combo):
        zx.pairs()[row] = mset.pairs[idx]
    return solver.energy_mismatch(solver.project_to_kirchhoff(zx, *args), zx, args[0])


def test_rc_linear_steps_end_at_a_coordinate_wise_minimum():
    # Two data elements, N = 100: on every 10th step no move of one element
    # to another pair of its set lowers the mismatch brute force evaluates.
    worst, checked = [], [0]

    def inspect(solver, trace, args):
        sel = trace.selected_indices[-1]
        at = _tuple_mismatch(solver, sel, args)
        for e, mset in enumerate(solver.flat.msets):
            for j in range(len(mset)):
                other = sel[:e] + (j,) + sel[e + 1:]
                worst.append((_tuple_mismatch(solver, other, args) - at) / at)
        checked[0] += 1

    _each_step(SCENARIOS["rc-linear"], 100, inspect, every=10)
    print(f"rc-linear N=100: {checked[0]} steps checked, "
          f"lowest relative change of a single move {min(worst):.3g}")
    assert checked[0] == 101
    assert min(worst) >= -1e-9


# A data resistor beside a known Shockley diode: the step runs Newton's
# method on the diode, whose re-linearised pair settles to NEWTON_RTOL.
DIODE_NET = "V1 1 0 DC 2\nR1 1 2 1e3\nD1 2 0 MODEL shockley(2.52e-9,1.752,0.02585,0.01)\n"


def test_known_nonlinear_steps_settle_at_the_global_minimum():
    graph = parse_netlist(DIODE_NET)
    inc = build_incidence(graph)
    known = bindings_from_graph(graph)
    binds = [b if b.name != "R1" else ElementBinding(
        "R1", "G", "data", data=generate_measurements(b.model, SamplingPlan(0.0, 2.0, 40)))
        for b in known]
    assert len(binds[0].data) == 40
    cfg = TransientConfig(scheme="backward-euler", t_end=1e-3, steps=5)
    solver = DDSolver(graph, inc, binds, DDConfig())
    state0, zx0 = solver.initial_state(cfg.t0, *cfg.init.resolve(graph))
    kirchhoff = solver.project_to_kirchhoff
    passes = []  # Kirchhoff solves per brute-force tuple
    d1 = solver.names.index("D1")

    def counted(zx, *args):
        # a tuple's first pass starts from zeros at the known diode
        if not zx.pairs()[d1].any():
            passes.append(0)
        passes[-1] += 1
        return kirchhoff(zx, *args)

    stops, differ = [], []

    def step(zx, t, alpha, rhs_c, rhs_l):
        args = (alpha, rhs_c, rhs_l, *sources(graph, t))
        zo, zx, trace = solver.solve_timestep(zx, *args)
        stops.append(trace.stop_reason)
        solver.project_to_kirchhoff = counted
        _, combo, best = brute_force_timestep(solver, *args)
        del solver.project_to_kirchhoff
        if trace.selected_indices[-1] != combo:
            differ.append((trace.selected_indices[-1], combo))
        return zo.x, zx, trace.iterations, trace.converged, trace

    march(graph, cfg, state0, zx0, step)
    capped = sum(p == 200 for p in passes)
    print(f"stops {stops}, brute-force passes per tuple {min(passes)}..{max(passes)} "
          f"({capped} of {len(passes)} at the cap), differing {differ}")
    assert set(stops) == {"selection-fixed"}
    assert not differ


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("name", ["rectifier", "rc-nonlinear"])
def test_known_nonlinear_full_cells_stop_on_a_repeated_selection(name, scheme):
    # The built-in netlists over their full runs with R1 as data (N = 1e3,
    # constant weights) beside a known nonlinear element, the Shockley D1 or
    # the MLCC C1: every step re-linearises it until its pair settles, and
    # stops on a repeated selection.
    scenario = dataclasses.replace(SCENARIOS[name], dd_names=("R1",), weight_rule="constant")
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end, steps=scenario.steps)
    trad = run_transient_traditional(graph, inc, known, cfg)
    binds = synthesize_datasets(scenario, graph, known, trad, 1000)
    dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    steps = dd.step_details[1:]
    stops = Counter(s.stop_reason for s in steps)
    iterations = sorted(Counter(s.iterations for s in steps).items())
    feasibility = max(s.feasibility_residual for s in steps)
    capped = int(np.count_nonzero(~dd.converged))
    kcl = kcl_residual(inc, dd)
    print(f"{name} {scheme}: stops {dict(stops)}, iterations {iterations}, "
          f"feasibility {feasibility:.2g}, KCL {kcl:.2g}")
    assert stops == {"selection-fixed": scenario.steps}
    assert capped == 0
    assert feasibility <= 1e-10
    # The rc-nonlinear KCL is not gated: it differences two charges of
    # ~3e-5 C, alpha * (q_new - q_old), against currents that decay to
    # ~3e-14 A, and that rounding leaves ~1e-10 (ROADMAP item 5).
    if name == "rectifier":
        assert kcl <= 1e-10


RLC_DATA = Scenario(
    name="rlc-data", netlist="V1 1 0 SIN 0 1 1000\nR1 1 2 10\nL1 2 3 1e-3\nC1 3 0 1e-6\n",
    dd_names=("R1", "L1", "C1"), scheme="trapezoidal", steps=200, t_end=2e-3,
    metric_element="R1")


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("name", ["rc-linear", "rc-nonlinear", "rectifier", "rlc-data"])
def test_element_voltages_are_exact(name, scheme):
    # Every state of a data-driven run, the t0 state and each step's
    # Kirchhoff state, holds v_g = A_g.T phi and v_c = A_c.T phi bit for bit,
    # which is why `feasibility_residual` checks no element-voltage block.
    if name == "rlc-data":
        graph, inc, known = build_scenario(RLC_DATA)
        cfg = TransientConfig(scheme=scheme, t_end=RLC_DATA.t_end, steps=RLC_DATA.steps)
        trad = run_transient_traditional(graph, inc, known, cfg)
        binds = synthesize_datasets(RLC_DATA, graph, known, trad, 300)
        dd = run_transient_dd(graph, inc, binds, cfg, DDConfig())
    else:
        dd = run_cell(name, scheme, SCENARIOS[name].steps, 100).dd_trace
        inc = build_incidence(dd.graph)
    for k, state in enumerate(dd.states):
        assert np.array_equal(state.v_g, inc.a_g.T @ state.phi), (k, "v_g")
        assert np.array_equal(state.v_c, inc.a_c.T @ state.phi), (k, "v_c")
