"""The recorded trace: each state the march records against the per-step lift
or Kirchhoff state, and the trace's array consumers against the per-state
loops they replaced."""

import numpy as np
import pytest

from ddmna import elements as em
from ddmna.dataset import bindings_from_graph, operating_envelope
from ddmna.ddsolver import DDConfig, DDSolver, run_transient_dd
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import TraditionalSolver, kcl_residual, run_transient_traditional
from ddmna.scenarios import SCENARIOS, build_scenario, synthesize_datasets
from ddmna.state import TransientConfig, TransientTrace

RL_NET = "I1 0 1 DC 1e-3\nR1 1 0 1e3\nL1 1 2 1e-3\nR2 2 0 10\n"
CIRCUITS = {"rectifier": (SCENARIOS["rectifier"].netlist, 0.02),
            "rc-nonlinear": (SCENARIOS["rc-nonlinear"].netlist, 1.0),
            "rl-current-source": (RL_NET, 1e-5)}


def _setup(net):
    graph = parse_netlist(net)
    return graph, build_incidence(graph), bindings_from_graph(graph)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _old_rates(trace, boot, scheme, h):
    """The rates of the per-step march: y = (q_c, psi_l) of each lifted state,
    differenced step by step; `boot` is the lifted bootstrap state."""
    y = [np.concatenate([s.q_c, s.psi_l]) for s in trace.states]
    ydot = [None] * len(y)
    if scheme == "trapezoidal":
        h_b = h / 100.0
        ydot[0] = (np.concatenate([boot.q_c, boot.psi_l]) - y[0]) / h_b
        alpha = 2.0 / h
        for k in range(1, len(y)):
            ydot[k] = alpha * (y[k] - y[k - 1]) - ydot[k - 1]
    else:
        ydot[0] = np.zeros_like(y[0])
        for k in range(1, len(y)):
            ydot[k] = (y[k] - y[k - 1]) / h
    return np.array(ydot)


@pytest.mark.parametrize("steps", [1, 2, 256, 300])
@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_block_lift_equals_the_per_step_lift(monkeypatch, name, scheme, steps):
    # every recorded state is the lift of the step's Newton vector and model
    # values, bit for bit (signs of zero included), and the rates are the old
    # per-state march's
    net, t_end = CIRCUITS[name]
    graph, inc, binds = _setup(net)
    cfg = TransientConfig(scheme=scheme, t_end=t_end * steps / 300, steps=steps)
    step, calls = TraditionalSolver.step, []

    def recording_step(self, x, t, alpha, *rhs):
        out = step(self, x, t, alpha, *rhs)
        if alpha:  # not the held circuit's step at t0
            calls.append((self, out[0].copy(), out[2].copy()))
        return out

    monkeypatch.setattr(TraditionalSolver, "step", recording_step)
    trace = run_transient_traditional(graph, inc, binds, cfg)
    solver = calls[0][0]
    lifted = [solver.lift(x, values) for _, x, values in calls]
    boot = lifted.pop(0) if scheme == "trapezoidal" else None
    assert len(lifted) == steps == len(trace.states) - 1
    state0 = solver.initial_state(cfg.t0, *cfg.init.resolve(graph))
    want = np.array([state0.x] + [s.x for s in lifted])
    assert np.array_equal(_bits(trace.x), _bits(want))
    assert all(np.array_equal(_bits(s.x), _bits(w)) for s, w in zip(trace.states, want))
    assert np.array_equal(_bits(trace.ydot), _bits(_old_rates(trace, boot, scheme, cfg.h)))


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
def test_data_driven_states_are_the_kirchhoff_states(monkeypatch, scheme):
    # each recorded state is the step's Kirchhoff state, bit for bit
    scenario = SCENARIOS["rc-linear"]
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end / 3, steps=300)
    data = synthesize_datasets(scenario, graph, known,
                               run_transient_traditional(graph, inc, known, cfg), 200)
    solve, calls = DDSolver.solve_timestep, []

    def recording_solve(self, *args):
        out = solve(self, *args)
        calls.append(out[0].x.copy())
        return out

    monkeypatch.setattr(DDSolver, "solve_timestep", recording_solve)
    trace = run_transient_dd(graph, inc, data, cfg, DDConfig())
    boot = trace.states[0].copy()  # the bootstrap step's state, trapezoidal only
    if scheme == "trapezoidal":
        boot.x[:] = calls.pop(0)
    assert np.array_equal(_bits(trace.x[1:]), _bits(calls))
    assert np.array_equal(_bits(trace.ydot), _bits(_old_rates(trace, boot, scheme, cfg.h)))


# -- consumers ----------------------------------------------------------------
def _traces(scheme="trapezoidal", steps=40):
    """(inc, trace) of reference runs of every element kind and of a data-driven
    run; over its full second the rc-nonlinear KCL residual is far above
    rounding (2.7e-8 under backward Euler, 3.2e-5 under the trapezoidal rule)."""
    out = []
    mlcc, rectifier = SCENARIOS["rc-nonlinear"].netlist, SCENARIOS["rectifier"].netlist
    for net, t_end in ((mlcc, 1e-3), (rectifier, 1e-3), (RL_NET, 1e-3), (mlcc, 1.0)):
        graph, inc, binds = _setup(net)
        cfg = TransientConfig(scheme=scheme, t_end=t_end, steps=steps)
        out.append((inc, run_transient_traditional(graph, inc, binds, cfg)))
    scenario = SCENARIOS["rectifier"]
    graph, inc, known = build_scenario(scenario)
    cfg = TransientConfig(scheme=scheme, t_end=scenario.t_end / 10, steps=steps)
    data = synthesize_datasets(scenario, graph, known,
                               run_transient_traditional(graph, inc, known, cfg), 1000)
    out.append((inc, run_transient_dd(graph, inc, data, cfg,
                                      DDConfig(weight_rule=scenario.weight_rule))))
    return out


def _write_csv_per_row(trace, path):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace.csv_header()) + "\n")
        for t, s in zip(trace.times, trace.states):
            fh.write(",".join(f"{x:.17g}" for x in (t, *s.x.tolist())) + "\n")


def test_write_csv_equals_the_per_row_writer(tmp_path):
    # a reference and a data-driven trace, and a trace of signed zeros,
    # non-finite values and extreme magnitudes
    graph, _, _ = _setup("V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n")
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308]
    x = np.resize(special + [0.1, -1.0 / 3.0], (3, 7))
    odd = TransientTrace(graph=graph, times=np.array([0.0, 1e-300, 0.1]), x=x,
                         ydot=np.zeros((3, 1)), iterations=np.zeros(3, int),
                         converged=np.ones(3, bool))
    (_, ref), *_, (_, dd) = _traces()
    for k, trace in enumerate([ref, dd, odd]):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        trace.write_csv(got)
        _write_csv_per_row(trace, want)
        assert got.read_bytes() == want.read_bytes()


def _kcl_residual_blocks(inc, trace, block_steps=32):
    """The stacked-block loop the array expression replaced."""
    waves = [e.waveform for e in trace.graph.groups["I"]]
    worst = 0.0
    for k in range(1, len(trace.states), block_steps):
        block = slice(k, k + block_steps)
        i_g, i_l, i_v = (np.array([getattr(s, name) for s in trace.states[block]]).T
                         for name in ("i_g", "i_l", "i_v"))
        qdot = trace.ydot[block, :inc.a_c.shape[1]].T
        i_src = np.array([[em.source_value(w, t) for w in waves] for t in trace.times[block]]).T
        r = inc.a_g.dot(i_g) + inc.a_c.dot(qdot) + inc.a_l.dot(i_l) + inc.a_v.dot(i_v) \
            - inc.a_i.dot(i_src)
        scale = np.maximum.reduce([np.abs(part).max(axis=0, initial=0.0)
                                   for part in (i_g, i_v, qdot)])
        worst = max(worst, (np.abs(r).max(axis=0, initial=0.0) / np.maximum(scale, 1e-30)).max())
    return float(worst)


@pytest.mark.parametrize("scheme", ["backward-euler", "trapezoidal"])
def test_kcl_residual_equals_the_block_loop(scheme):
    # 40 steps: one full block of the loop and one partial block; the two
    # sum in another order, so they agree to rounding, relative to the
    # residual where it is large and to the current scale where it is not
    for inc, trace in _traces(scheme):
        assert kcl_residual(inc, trace) == pytest.approx(_kcl_residual_blocks(inc, trace),
                                                         rel=1e-12, abs=1e-14)


def test_pairs_and_envelope_equal_the_per_state_loops():
    for _, trace in _traces():
        graph = trace.graph
        env = {}
        for group in "GCL":
            for j, e in enumerate(graph.groups[group]):
                want = np.array([s.pairs(group)[j] for s in trace.states])
                got = trace.pairs(group, j)
                assert np.array_equal(_bits(got), _bits(want)) and got.flags.owndata
                col = 1 if (group == "L" or e.kind == "diode") else 0
                lo, hi = float(want[:, col].min()), float(want[:, col].max())
                mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
                pad = (1.2 - 1.0) * max(abs(mid), 1.0)
                env[e.name] = ((mid - 1.2 * half, mid + 1.2 * half) if half > 0.0
                               else (mid - pad, mid + pad))
        assert operating_envelope(trace, graph, margin=1.2) == env


def test_trace_shapes_must_match_times_and_layout():
    graph, inc, binds = _setup(RL_NET)
    trace = run_transient_traditional(graph, inc, binds, TransientConfig(steps=5))
    fields = dict(graph=graph, times=trace.times, x=trace.x, ydot=trace.ydot,
                  iterations=trace.iterations, converged=trace.converged)
    TransientTrace(**fields)
    for name, bad in (("times", trace.times[:-1]), ("x", trace.x[:, :-1]),
                      ("x", trace.x[:-1]), ("ydot", trace.ydot[:, :0]),
                      ("ydot", trace.ydot[1:]), ("graph", parse_netlist(RL_NET + "C1 2 0 1e-6\n"))):
        with pytest.raises(ValueError, match="state array and rate matrix"):
            TransientTrace(**{**fields, name: bad})
