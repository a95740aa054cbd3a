import math

import numpy as np
import pytest

from ddmna.elements import (
    LinearModel,
    MlccCapacitorModel,
    ModelDomainError,
    ShockleyDiodeModel,
    SourceWaveform,
    capacitor_charge,
    composite_diode_current,
    composite_diode_voltage,
    conductor_current,
    mlcc_capacitance,
    mlcc_charge,
    shockley_current,
    source_value,
)

DIODE = ShockleyDiodeModel(i_s=2.52e-9, n_ideality=1.752, v_t=25.85e-3,
                           r_series=0.0)
DIODE_RD = ShockleyDiodeModel(i_s=2.52e-9, n_ideality=1.752, v_t=25.85e-3,
                              r_series=10e-3)
MLCC = MlccCapacitorModel(c0=10e-6, cinf=2e-6, v0=1.0)


def test_shockley_zero_bias():
    assert shockley_current(DIODE, 0.0) == 0.0


def test_shockley_at_log2_knee():
    v = DIODE.n_ideality * DIODE.v_t * math.log(2.0)
    assert shockley_current(DIODE, v) == pytest.approx(DIODE.i_s, rel=1e-12)


def test_shockley_reverse_saturation():
    i = shockley_current(DIODE, -5.0)
    assert i == pytest.approx(-DIODE.i_s, rel=1e-40)


def test_shockley_strictly_increasing():
    v = np.linspace(-1.0, 0.8, 400)
    i = shockley_current(DIODE, v)
    assert np.all(np.diff(i) > 0.0)


def test_shockley_overflow_clamped():
    # huge forward bias must not overflow, just saturate at the clamp
    i = shockley_current(DIODE, 100.0)
    assert np.isfinite(i)


def test_composite_voltage_at_zero_current():
    assert composite_diode_voltage(DIODE_RD, 0.0) == 0.0


def test_composite_voltage_at_saturation_current():
    v = composite_diode_voltage(DIODE, DIODE.i_s)
    assert v == pytest.approx(DIODE.n_ideality * DIODE.v_t * math.log(2.0),
                              rel=1e-12)


def test_composite_round_trip():
    for i_star in (1e-6, 1e-3, 1.0):
        v = composite_diode_voltage(DIODE_RD, i_star)
        assert composite_diode_current(DIODE_RD, v) == pytest.approx(
            i_star, rel=1e-12)


def test_composite_round_trip_wide_range():
    for i_star in np.logspace(-9, 1, 21):
        v = composite_diode_voltage(DIODE_RD, i_star)
        assert composite_diode_current(DIODE_RD, v) == pytest.approx(
            i_star, rel=1e-10)


def test_composite_voltage_domain_error():
    with pytest.raises(ModelDomainError):
        composite_diode_voltage(DIODE_RD, -2.0 * DIODE_RD.i_s)


def test_mlcc_capacitance_values():
    assert mlcc_capacitance(MLCC, 0.0) == pytest.approx(MLCC.c0)
    assert mlcc_capacitance(MLCC, MLCC.v0) == pytest.approx(
        MLCC.cinf + 0.5 * (MLCC.c0 - MLCC.cinf))
    # (C0 - Cinf)/Cinf = 4 here, so the residual at 100*v0 is 4e-4 relative
    assert mlcc_capacitance(MLCC, 100.0 * MLCC.v0) == pytest.approx(
        MLCC.cinf, rel=5e-4)
    assert mlcc_capacitance(MLCC, 1000.0 * MLCC.v0) == pytest.approx(
        MLCC.cinf, rel=5e-6)


def test_mlcc_capacitance_even_and_bounded():
    v = np.linspace(-20, 20, 101)
    c = mlcc_capacitance(MLCC, v)
    assert np.allclose(c, mlcc_capacitance(MLCC, -v))
    assert np.all(c >= MLCC.cinf) and np.all(c <= MLCC.c0)


def test_mlcc_charge_zero_and_odd():
    assert mlcc_charge(MLCC, 0.0) == 0.0
    for v in (0.3, 1.0, 7.5):
        assert mlcc_charge(MLCC, -v) == pytest.approx(-mlcc_charge(MLCC, v))


def test_mlcc_charge_derivative_matches_capacitance():
    delta = 1e-6
    for v in (0.0, 1.0, 5.0):
        fd = (mlcc_charge(MLCC, v + delta) - mlcc_charge(MLCC, v - delta)) / (2 * delta)
        assert fd == pytest.approx(mlcc_capacitance(MLCC, v), rel=1e-6)


def test_mlcc_charge_strictly_increasing():
    v = np.linspace(-10, 10, 401)
    assert np.all(np.diff(mlcc_charge(MLCC, v)) > 0.0)


def test_eval_linear_elements():
    assert conductor_current(LinearModel("G", 1e-3), 2.0) == pytest.approx(2e-3)
    assert capacitor_charge(LinearModel("C", 100e-6), 5.0) == pytest.approx(500e-6)


def test_eval_diode_inversion_consistency():
    v = composite_diode_voltage(DIODE_RD, 1e-3)
    assert conductor_current(DIODE_RD, v) == pytest.approx(1e-3, rel=1e-10)


def test_source_values():
    sin = SourceWaveform("SIN", offset=0.0, amplitude=5.0, frequency_hz=100.0)
    assert source_value(sin, 2.5e-3) == pytest.approx(5.0)
    assert source_value(sin, 0.0) == pytest.approx(0.0, abs=1e-12)
    dc = SourceWaveform("DC", dc_value=1.0)
    for t in (0.0, 0.1, 3.0):
        assert source_value(dc, t) == 1.0
