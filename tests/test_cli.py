import csv
import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ddmna import __version__
from ddmna.cli import main
from ddmna.dataset import bindings_from_graph
from ddmna.ddsolver import DDConfig, run_transient_dd
from ddmna.elements import ShockleyDiodeModel, composite_diode_voltage
from ddmna.netlist import build_incidence, parse_netlist
from ddmna.reference import analytic_rc_voltage
from ddmna.scenarios import ExperimentSpec, run_experiment
from ddmna.state import CircuitState, TransientConfig, TransientTrace

RC_NET = "V1 1 0 DC 1\nR1 1 2 1e3\nC1 2 0 1e-6\n"


def _write_rc(tmp_path):
    path = tmp_path / "rc.net"
    path.write_text(RC_NET)
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_traditional_artifacts(tmp_path, capsys):
    net = _write_rc(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--netlist", str(net), "--scheme", "trapezoidal",
               "--steps", "100", "--t-end", "5e-3", "--solver", "traditional",
               "--out", str(out)])
    assert rc == 0
    assert (out / "trace.csv").exists()
    assert (out / "convergence.csv").exists()
    summary = {r["key"]: r["value"] for r in _read_csv(out / "summary.csv")}
    assert summary["version"] == __version__
    rows = _read_csv(out / "trace.csv")
    assert len(rows) == 101
    v_end = float(rows[-1]["v_C1"])
    assert v_end == pytest.approx(
        analytic_rc_voltage(1e3, 1e-6, 1.0, 5e-3), abs=1e-4)


def test_run_data_driven_artifacts(tmp_path):
    net = _write_rc(tmp_path)
    out = tmp_path / "dd"
    rc = main(["run", "--netlist", str(net), "--scheme", "be",
               "--steps", "50", "--solver", "data-driven", "--out", str(out)])
    assert rc == 0
    conv = _read_csv(out / "convergence.csv")
    assert set(conv[0]) == {"step", "iteration", "energy_mismatch"}
    # the stop-reason counts and the Kirchhoff solves match a run of the same circuit
    summary = {r["key"]: r["value"] for r in _read_csv(out / "summary.csv")}
    graph = parse_netlist(RC_NET)
    trace = run_transient_dd(graph, build_incidence(graph), bindings_from_graph(graph),
                             TransientConfig(scheme="backward-euler", steps=50))
    steps = trace.step_details[1:]
    stops = Counter(s.stop_reason for s in steps)
    assert {k[len("stop_reason_"):]: int(v) for k, v in summary.items()
            if k.startswith("stop_reason_")} == stops
    assert sum(stops.values()) == 50
    assert int(summary["solves"]) == sum(s.solves for s in steps)


def test_run_missing_netlist_exits_2(tmp_path, capsys):
    rc = main(["run", "--netlist", str(tmp_path / "nope.net"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope.net" in err


def test_run_bad_scheme_exits_2(tmp_path):
    # argparse rejects the value during parsing and exits with the usage code
    net = _write_rc(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--netlist", str(net), "--scheme", "simpson",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_run_outputs_deterministic(tmp_path):
    net = _write_rc(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--netlist", str(net), "--scheme", "tr",
                     "--steps", "40", "--solver", "data-driven",
                     "--out", str(out)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_gen_shockley_rows_model_consistent(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["gen", "--model", "shockley", "--i-range", "1e-9:10",
               "--n", "1000", "--spacing", "log", "--rd", "10e-3",
               "--out", str(out)])
    assert rc == 0
    model = ShockleyDiodeModel(2.52e-9, 1.752, 25.85e-3, r_series=10e-3)
    rows = _read_csv(out)
    assert len(rows) == 1000
    for row in rows[:: 50]:
        v, i = float(row["v"]), float(row["i"])
        assert v == pytest.approx(composite_diode_voltage(model, i), rel=1e-12)
    printed = capsys.readouterr().out
    assert "1000" in printed


def test_gen_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["gen", "--model", "linear-g", "--value", "1e-3",
                 "--range", "0:1", "--n", "1", "--out", str(out)]) == 0
    assert len(_read_csv(out)) == 1


def test_gen_linear_three_samples(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["gen", "--model", "linear-g", "--value", "1e-3",
                 "--range", "0:1", "--n", "3", "--out", str(out)]) == 0
    rows = _read_csv(out)
    got = [(float(r["v"]), float(r["i"])) for r in rows]
    assert np.allclose(got, [(0.0, 0.0), (0.5, 0.5e-3), (1.0, 1e-3)])


def test_gen_bad_range_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--model", "linear-g", "--value", "1",
              "--range", "nonsense", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "argument --range: range must be lo:hi, got 'nonsense'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, entries", [
    (["--range", "0:1", "--i-range", "0:5"], ""),
    ([], "range = 0:1\ni-range = 0:5\n"),
    (["--i-range", "0:5"], "range = 0:1\n")], ids=["flags", "config", "flag-and-config"])
def test_gen_range_with_i_range_exits_2(tmp_path, capsys, flags, entries):
    # both set the drive range; neither may be dropped without a word
    out = tmp_path / "g.csv"
    cfg = tmp_path / "gen.ini"
    cfg.write_text(f"[gen]\n{entries}")
    assert main(["--config", str(cfg), "gen", "--model", "linear-g", "--value", "1e-3",
                 "--n", "3", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --range and --i-range are mutually exclusive\n"
    assert not out.exists()


def test_experiment_sweep_artifacts(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["experiment", "rc-linear", "--schemes", "tr",
               "--steps", "50", "--n", "50,200", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "sweep.csv")
    assert [r["N"] for r in rows] == ["50", "200"]
    assert set(rows[0]) == {"scenario", "scheme", "K", "N", "rms",
                            "median_iters", "nonconverged",
                            "solves", "wall_s"}
    assert all(r["nonconverged"] == "0" for r in rows)
    assert float(rows[1]["rms"]) < float(rows[0]["rms"])
    cell = out / "trapezoidal_K50_N200"
    for name in ("trace_dd.csv", "trace_traditional.csv", "error_series.csv",
                 "convergence.csv", "summary.csv", "config.json"):
        assert (cell / name).exists()
    summary = _read_csv(cell / "summary.csv")
    assert len(summary) == 50
    assert set(summary[0]) == {"step", "iterations", "converged", "final_mismatch",
                               "stop_reason", "solves",
                               "feasibility_residual"}
    assert all(r["stop_reason"] != "cap" for r in summary)
    assert all(float(r["feasibility_residual"]) <= 1e-10 for r in summary)
    config = json.loads((cell / "config.json").read_text())
    assert config["version"] == __version__
    assert config["dd_config"] == dataclasses.asdict(DDConfig())


def _plain(x):
    """x with arrays, states, traces and dataclasses as nested plain values."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, CircuitState):
        return x.x.tolist()
    if isinstance(x, TransientTrace):
        return _plain([x.times, x.x, x.iterations, x.converged, x.step_details, x.ydot])
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def test_experiment_workers_equal_one_process(tmp_path):
    # Two worker processes give the cells one process gives, but for wall time.
    spec = ExperimentSpec("rc-linear", [20, 50], ["backward-euler"], [20])
    one = run_experiment(spec, str(tmp_path / "one"), workers=1)
    two = run_experiment(spec, str(tmp_path / "two"), workers=2)
    assert [(c.scheme, c.steps, c.n) for c in two] == [("backward-euler", 20, 20),
                                                       ("backward-euler", 20, 50)]
    assert [{**_plain(c), "wall_s": None} for c in one] == \
        [{**_plain(c), "wall_s": None} for c in two]


def test_experiment_decade_span_parsing(tmp_path):
    out = tmp_path / "sp"
    rc = main(["experiment", "rc-linear", "--schemes", "tr", "--steps", "20",
               "--n", "1e1:1e3", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out / "sweep.csv")
    assert [r["N"] for r in rows] == ["10", "100", "1000"]
    assert (out / "slopes.csv").exists()


@pytest.mark.parametrize("span, sizes", [("1e2:5e3", ["100", "1000"]), ("2:10", ["10"])])
def test_experiment_decade_span_takes_the_powers_of_ten_inside_it(tmp_path, span, sizes):
    out = tmp_path / "sp"
    assert main(["experiment", "rc-linear", "--schemes", "tr", "--steps", "20",
                 "--n", span, "--out", str(out)]) == 0
    assert [r["N"] for r in _read_csv(out / "sweep.csv")] == sizes


def test_decade_span_without_a_power_of_ten_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "rc-linear", "--n", "2:9", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --n: span '2:9' holds no power of ten" in capsys.readouterr().err
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nscenario = rc-linear\nn = 2:9\nout = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), "experiment"]) == 2
    assert capsys.readouterr().err.startswith("error: --n: span '2:9' holds no power of ten")
    assert not (tmp_path / "o").exists()


def test_comma_lists_take_spaces_after_the_commas(tmp_path):
    # on the command line and in a config file, as a comma list would be typed
    flag, file = tmp_path / "flag", tmp_path / "file"
    assert main(["experiment", "rc-linear", "--schemes", "be, tr", "--steps", "20",
                 "--n", "10", "--out", str(flag)]) == 0
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nscenario = rc-linear\nschemes = be, tr\nsteps = 20\n"
                   f"n = 10\nout = {file}\n")
    assert main(["--config", str(cfg), "experiment"]) == 0
    for out in (flag, file):
        assert [r["scheme"] for r in _read_csv(out / "sweep.csv")] == ["backward-euler",
                                                                      "trapezoidal"]


def test_experiment_unknown_scenario_exits_2(tmp_path, capsys):
    assert main(["experiment", "--n", "10",
                 "--out", str(tmp_path / "x")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "rc-linear", "--n", "0", "--out", str(tmp_path / "y")])
    assert exc.value.code == 2
    assert "argument --n: must be >= 1" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    net = _write_rc(tmp_path)
    out = tmp_path / "cfg_out"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        f"netlist = {net}\n"
        "scheme = trapezoidal\n"
        "steps = 25\n"
        "solver = traditional\n"
        f"out = {out}\n"
    )
    assert main(["--config", str(cfg), "run"]) == 0
    assert len(_read_csv(out / "trace.csv")) == 26


def test_config_flag_overrides_file(tmp_path):
    net = _write_rc(tmp_path)
    out = tmp_path / "ovr"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nnetlist = {net}\nsteps = 25\nout = {out}\n")
    assert main(["--config", str(cfg), "run", "--steps", "10"]) == 0
    assert len(_read_csv(out / "trace.csv")) == 11


@pytest.mark.parametrize("model, entries", [
    ("linear-g", "value = 1e-3\nrange = 0:1"),
    ("shockley", "i-range = 1e-9:10\nis = 1e-9\nspacing = log")])
def test_config_keys_are_the_long_option_names(tmp_path, model, entries):
    # --range, --i-range and --is store their values under other names
    # (vrange, irange, i_s); a file names them as the command line does
    out = [tmp_path / "flags.csv", tmp_path / "file.csv"]
    flags = ["--" + line.replace(" = ", "=") for line in entries.split("\n")]
    assert main(["gen", "--model", model, "--n", "5", *flags, "--out", str(out[0])]) == 0
    cfg = tmp_path / "gen.ini"
    cfg.write_text(f"[gen]\nmodel = {model}\nn = 5\n{entries}\nout = {out[1]}\n")
    assert main(["--config", str(cfg), "gen"]) == 0
    assert out[1].read_text() == out[0].read_text()


@pytest.mark.parametrize("section, key", [("run", "bogus"), ("run", "tol-em"), ("run", "t_end"),
                                          ("run", "help"), ("gen", "vrange")])
def test_unknown_config_key_exits_2(tmp_path, capsys, section, key):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{key} = 1\nout = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), section]) == 2
    assert capsys.readouterr().err == f"error: config [{section}]: unknown option '{key}'\n"
    assert not (tmp_path / "o").exists()


def test_default_section_keys_fill_the_options_they_name(tmp_path):
    # [DEFAULT] is shared by every section: `steps` sets --steps of run, and
    # `workers`, an option of experiment only, is no error in [run]
    net = _write_rc(tmp_path)
    out = tmp_path / "o"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[DEFAULT]\nsteps = 10\nworkers = 2\n[run]\nnetlist = {net}\nout = {out}\n")
    assert main(["--config", str(cfg), "run"]) == 0
    assert len(_read_csv(out / "trace.csv")) == 11


@pytest.mark.parametrize("entry, option", [("steps = 0", "--steps"),
                                           ("scheme = xx", "--scheme"),
                                           ("steps = inf", "--steps"),
                                           ("steps = 2.5", "--steps")])
def test_run_bad_config_value_exits_2(tmp_path, capsys, entry, option):
    net = _write_rc(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nnetlist = {net}\n{entry}\nout = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), "run"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option}: ")


def test_experiment_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"[experiment]\nscenario = rc-linear\nn = 10\nworkers = 0\n"
                   f"out = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), "experiment"]) == 2
    assert capsys.readouterr().err.startswith("error: --workers: ")
    cfg.write_text(f"[experiment]\nscenario = rc-linear\nn = 10\nschemes = be,xx\n"
                   f"out = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), "experiment"]) == 2
    assert capsys.readouterr().err.startswith("error: --schemes: unknown scheme 'xx'")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "rc-linear", "--n", "10", "--schemes", "be,xx",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --schemes: unknown scheme 'xx'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, option", [
    (["run", "--steps", "inf"], "--steps"),
    (["run", "--max-iters", "2.5"], "--max-iters"),
    (["gen", "--n", "2.9"], "--n"),
    (["experiment", "rc-linear", "--n", "10", "--workers", "inf"], "--workers")])
def test_non_integral_flag_exits_2(capsys, argv, option):
    # argparse rejects the value during parsing and exits with the usage code
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("section, entries, option", [
    ("gen", "model = linear-g\nvalue = 1\nrange = 0:1\nn = 2.9", "--n"),
    ("experiment", "scenario = rc-linear\nn = 10\nworkers = inf", "--workers"),
    ("experiment", "scenario = rc-linear\nn = 1e3,inf", "--n"),
    ("experiment", "scenario = rc-linear\nn = 1:inf", "--n"),
    ("experiment", "scenario = rc-linear\nn = 10\nsteps = 20,inf", "--steps")])
def test_bad_integer_config_value_exits_2(tmp_path, capsys, section, entries, option):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{entries}\nout = {tmp_path / 'o'}\n")
    assert main(["--config", str(cfg), section]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option}: ")


@pytest.mark.parametrize("section, entries, option", [
    ("run", "netlist = {net}\nsolver = foo", "--solver"),
    ("gen", "model = linear-g\nvalue = 1\nrange = 0:1\nn = 3\nspacing = logg", "--spacing"),
    ("gen", "model = foo\nvalue = 1\nrange = 0:1\nn = 3", "--model"),
    ("gen", "model = shockley\nrange = 0:1\nn = 3\nis = abc", "--is")],
    ids=["solver", "spacing", "model", "is"])
def test_config_value_takes_its_options_type_and_choices(tmp_path, capsys, section, entries,
                                                         option):
    # A config value passes through its option's type and choices, as a
    # flag does, and is rejected before any work, named by its option.
    out = tmp_path / "o"
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\n{entries.format(net=_write_rc(tmp_path))}\nout = {out}\n")
    assert main(["--config", str(cfg), section]) == 2
    assert capsys.readouterr().err.startswith(f"error: {option}: ")
    assert not out.exists()


def test_negative_range_bound_takes_the_equals_form(tmp_path, capsys):
    # After a space, argparse reads "-2e-9:0.05" as an option; the = form on
    # the command line and a config value carry it, and --help shows the form.
    flag_out, file_out = tmp_path / "flag.csv", tmp_path / "file.csv"
    assert main(["gen", "--model", "shockley", "--n", "5", "--i-range=-2e-9:0.05",
                 "--out", str(flag_out)]) == 0
    cfg = tmp_path / "gen.ini"
    cfg.write_text(f"[gen]\nmodel = shockley\nn = 5\ni-range = -2e-9:0.05\nout = {file_out}\n")
    assert main(["--config", str(cfg), "gen"]) == 0
    for out in (flag_out, file_out):
        assert float(_read_csv(out)[0]["i"]) == -2e-9
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    text = "".join(capsys.readouterr().out.split())  # unwrapped
    assert "--range=-1:1" in text and "--i-range=-2e-9:0.05" in text


@pytest.mark.parametrize("n, steps", [("1e3,inf", "20"), ("1:inf", "20"), ("10", "20,inf")])
def test_experiment_bad_integer_list_exits_2(tmp_path, capsys, n, steps):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "rc-linear", "--n", n, "--steps", steps,
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument --{'steps' if n == '10' else 'n'}: " in capsys.readouterr().err


def test_run_infinite_time_window_exits_2(tmp_path, capsys):
    net = _write_rc(tmp_path)
    for flags in (["--t-end", "inf"], ["--t0=-inf", "--t-end", "0"]):
        assert main(["run", "--netlist", str(net), *flags, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: t0 and t_end must be finite, with t_end > t0\n"
    assert not (tmp_path / "o" / "trace.csv").exists()
    with pytest.raises(ValueError):
        TransientConfig(t_end=math.inf)


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and any(ch.isdigit() for ch in out)


def test_version_matches_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        expected = tomllib.load(fh)["project"]["version"]
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == expected
