"""Scaling of case times to the reference host speed."""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench_speed  # noqa: E402


def test_scale_uses_the_mean_of_the_bracketing_samples():
    ref = bench_speed.REFERENCE_S
    assert bench_speed.scale(2.0, ref, ref) == pytest.approx(2.0)
    # the host ran at half speed, so the case would have taken half as long
    assert bench_speed.scale(2.0, ref, 3.0 * ref) == pytest.approx(1.0)


@pytest.mark.parametrize("enabled", [True, False])
def test_meter_sums_stretches_between_marks(enabled):
    meter = bench_speed.Meter(enabled)
    meter.start()
    for _ in range(2):
        meter.resume()
        time.sleep(0.02)
        meter.mark()
    assert 0.04 <= meter.seconds < 1.0
    if enabled:
        assert meter.scaled > 0.0
    else:
        assert meter.scaled == meter.seconds


def test_sample_is_a_positive_time():
    assert 0.0 < bench_speed.sample() < 10.0
