"""One seed-1 case of each benchmark workload passes the benchmark's own output
checks (the RC gaps, the reference KCL gate, the cells' feasibility and rms)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench_workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_workload_case_passes_its_checks(name):
    workload = bench_workloads.WORKLOADS[name]
    out = bench_workloads.run_case(workload, workload.make_case(1, 0))
    assert out.errors == []
    assert out.steps > 0 and out.capped == 0
