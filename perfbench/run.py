"""ddmna benchmark: one workload (or all of them) in one process.

    python3 perfbench/run.py --workload rectifier-n1e5 --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports ddmna from ./src.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are BENCHMARK.json's end_to_end set,
measured with tracing off; with --trace 1 they are its per_layer set, from a
separate traced pass.  Exit code 1 means an output check failed; 2 means the
program could not be loaded.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: the program is single-threaded and the benchmark
# measures it, not the BLAS thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib.metadata
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import tomllib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 60


def pin_allocator() -> str:
    """Fix glibc's trim and mmap thresholds for this process.

    By default glibc serves large blocks from fresh mappings and returns free
    memory at the top of the heap to the system, with thresholds that move as
    the process runs.  NumPy temporaries of a 1e5-pair scan then page-fault on
    every solver iteration or on none, depending on the process's history, and
    the same case runs 1.5 or 3.5 ms per iteration.  Fixed thresholds keep
    every run in the fault-free mode.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if libc.mallopt(m_trim_threshold, 1 << 30) and libc.mallopt(m_mmap_threshold, 1 << 24):
        return "glibc trim 1 GiB, mmap 16 MiB"
    return "default"


def load_program():
    """Import ddmna from this checkout's src/, and nowhere else."""
    if not (SRC / "ddmna" / "__init__.py").is_file():
        raise ImportError(f"no ddmna package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ddmna
    if Path(ddmna.__file__).resolve().parent != (SRC / "ddmna").resolve():
        raise ImportError(f"ddmna was imported from {ddmna.__file__}, not {SRC}")


def import_seconds() -> float:
    """`import ddmna` in a fresh interpreter, timed inside that interpreter."""
    code = ("import time; t = time.perf_counter(); import ddmna; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=IMPORT_TIMEOUT_S)
    return float(res.stdout.strip().splitlines()[-1])


def package_version() -> str:
    try:
        return importlib.metadata.version("ddmna")
    except importlib.metadata.PackageNotFoundError:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_info(allocator: str) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "allocator": allocator,
            "ddmna": package_version(), "commit": git_commit()}


def number(x: float):
    """JSON-safe value: non-finite numbers become null (the run then fails)."""
    return float(x) if math.isfinite(x) else None


def timed_run(workload, seed: int, seconds: float):
    """Closed loop over the seed's cases until `seconds` would be exceeded.

    At least `min_cases` cases run, so rms and step counts come from a fixed
    set of inputs; later cases only add timing samples.  For a scaled
    workload, host-speed samples bracket every case (every run of a
    reference batch) to scale its time.
    """
    import bench_speed
    import bench_workloads as wl
    meter = bench_speed.Meter(workload.scaled)
    meter.start()
    outcomes = []
    t_start = time.perf_counter()
    while True:
        outcomes.append(wl.run_case(workload, workload.make_case(seed, len(outcomes)), meter))
        elapsed = time.perf_counter() - t_start
        n = len(outcomes)
        if n >= workload.min_cases and elapsed + elapsed / n > seconds:
            return outcomes


def setup_seconds(workload, seed: int) -> float:
    """Median over repeats of a fresh-interpreter import plus one in-process set-up.

    Set-up is mostly interpreter work (the import) on every workload, so each
    repeat is scaled to the reference host speed, as a scaled case is.
    """
    import bench_speed
    once = workload.setup(workload.make_case(seed, 0))
    times = []
    before = bench_speed.sample()
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds() + once()
        after = bench_speed.sample()
        times.append(bench_speed.scale(seconds, before, after))
        before = after
    return statistics.median(times)


def end_to_end(workload, seed: int, seconds: float):
    outcomes = timed_run(workload, seed, seconds)
    fixed = outcomes[:workload.min_cases]
    steps = sum(o.steps for o in fixed)
    values = {
        "wall_s": statistics.fmean(o.scaled for o in outcomes),
        "setup_s": setup_seconds(workload, seed),
        "rms": statistics.fmean(o.rms for o in fixed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    shown = dict(values, capped_frac=sum(o.capped for o in fixed) / steps,
                 kcl_ungated=max(o.kcl_ungated for o in fixed),
                 wall_s_unscaled=statistics.fmean(o.seconds for o in outcomes))
    return outcomes, values, shown


def per_layer(workload, seed: int, tag: str):
    import bench_trace
    import bench_workloads as wl
    cases = [workload.make_case(seed, j) for j in range(workload.traced_cases)]
    untraced = [wl.run_case(workload, case) for case in cases]
    tracer = bench_trace.Tracer()
    try:
        extra = bench_trace.install(tracer)
        traced = [wl.run_case(workload, case) for case in cases]
    finally:
        tracer.restore()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{tag}.npz")
    iters = sum(o.iters for o in traced)
    steps = sum(o.steps for o in traced)
    values = bench_trace.layer_metrics(tracer, extra, iters)
    values.update({
        "ddsolver.iters": iters,
        "ddsolver.capped_steps": sum(o.capped for o in traced),
        "ddsolver.em_rises": sum(o.em_rises for o in traced),
        "capped_frac": sum(o.capped for o in traced) / steps,
        "kcl_ungated": max(o.kcl_ungated for o in traced),
        "trace.overhead": sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1.0,
    })
    return untraced + traced, values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    import bench_workloads as wl
    workload = wl.WORKLOADS[name]
    if trace:
        outcomes, values = per_layer(workload, seed, f"{name}-seed{seed}")
        shown = values
        wanted = spec["per_layer"]
    else:
        outcomes, values, shown = end_to_end(workload, seed, seconds)
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["wall_s_unscaled"] = "s"
    failed = [o for o in outcomes if o.errors]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  cases {len(outcomes)}  "
          f"failed {len(failed)}")
    for j, o in enumerate(outcomes):
        for err in o.errors:
            print(f"  case {j}: CHECK FAILED: {err}")
    for key in sorted(shown):
        print(f"  {key:28s} {shown[key]:>14.6g} {units[key]}")
    if trace:
        layers = {k: v for k, v in values.items() if k.endswith(".self_s")}
        total = sum(layers.values()) or 1.0
        print("  self-time share: " + ", ".join(
            f"{k[:-7]} {v / total:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    metrics = {m["name"]: {"value": number(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    return outcomes, failed, metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    allocator = pin_allocator()
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine_info(allocator)))
    run = names if args.workload == "all" else [args.workload]
    attempted, failed, metrics = 0, 0, {}
    for name in run:
        outcomes, bad, got = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        attempted += len(outcomes)
        failed += len(bad)
        prefix = f"{name}/" if len(run) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
