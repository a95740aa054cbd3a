import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddmna
from ddmna.elements import (
    EXP_CLAMP,
    MlccCapacitorModel,
    ModelDomainError,
    ShockleyDiodeModel,
    SourceWaveform,
    composite_diode_conductance,
    composite_diode_current,
    composite_diode_voltage,
    mlcc_capacitance,
    mlcc_charge,
    shockley_conductance,
    shockley_current,
    source_value,
    wright_omega,
)

DIODE = ShockleyDiodeModel(i_s=2.52e-9, n_ideality=1.752, v_t=25.85e-3,
                           r_series=0.0)
DIODE_RD = ShockleyDiodeModel(i_s=2.52e-9, n_ideality=1.752, v_t=25.85e-3,
                              r_series=10e-3)
# n vT is about 1 V here, so -2 V is a shallow reverse bias whose conductance
# a finite difference of the current still resolves.
SOFT = ShockleyDiodeModel(i_s=1e-6, n_ideality=40.0, v_t=25.85e-3)
SOFT_RD = ShockleyDiodeModel(i_s=1e-6, n_ideality=40.0, v_t=25.85e-3,
                             r_series=50.0)
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
    reverse = [-0.9 * DIODE_RD.i_s, -0.5 * DIODE_RD.i_s]
    for i_star in np.concatenate([reverse, np.logspace(-9, 3, 25)]):
        v = composite_diode_voltage(DIODE_RD, i_star)
        assert composite_diode_current(DIODE_RD, v) == pytest.approx(
            i_star, rel=1e-13, abs=0.0)


def _voltages(scale: float, seed: int) -> np.ndarray:
    """100 002 seeded voltages: the forward knee and the EXP_CLAMP region in
    units of `scale`, deep reverse and forward bias up to 1e300 V, magnitudes
    down to 1e-300 V of either sign, and +-0.0."""
    rng = np.random.default_rng(seed)
    n = 20_000
    return np.concatenate([scale * rng.uniform(-10.0, 40.0, n),
                           scale * rng.uniform(EXP_CLAMP - 10.0, EXP_CLAMP + 10.0, n),
                           -10.0 ** rng.uniform(0.0, 300.0, n),
                           10.0 ** rng.uniform(-300.0, 0.0, n) * rng.choice([-1.0, 1.0], n),
                           10.0 ** rng.uniform(0.0, 300.0, n), [0.0, -0.0]])


def _assert_scalar_path_matches_array(fn, model, v):
    with np.errstate(over="ignore"):  # the MLCC's (v/v0)^2 overflows at 1e300 V
        out = fn(model, v)
    assert isinstance(out, np.ndarray) and out.shape == v.shape
    scalars = [fn(model, x) for x in v.tolist()]
    assert all(type(x) is float for x in scalars)
    assert np.array_equal(out, scalars)
    # bitwise, signed zeros included
    assert np.array_equal(out.view(np.int64), np.array(scalars).view(np.int64))


@pytest.mark.parametrize("model", [DIODE, DIODE_RD, SOFT_RD])
def test_composite_array_matches_scalar(model):
    v = _voltages(model.nvt, seed=11)
    for fn in (shockley_current, shockley_conductance, composite_diode_current,
               composite_diode_conductance):
        _assert_scalar_path_matches_array(fn, model, v)


def test_mlcc_array_matches_scalar():
    v = _voltages(MLCC.v0, seed=12)
    for fn in (mlcc_charge, mlcc_capacitance):
        _assert_scalar_path_matches_array(fn, MLCC, v)


@pytest.mark.parametrize("model, v", [
    (DIODE, 0.7), (DIODE, 0.0), (DIODE_RD, 0.7), (DIODE_RD, 0.0),
    (SOFT, 1.0), (SOFT, 0.0), (SOFT, -2.0),
    (SOFT_RD, 1.0), (SOFT_RD, 0.0), (SOFT_RD, -2.0),
])
def test_composite_conductance_matches_finite_difference(model, v):
    h = 1e-4 * model.nvt
    fd = (composite_diode_current(model, v + h)
          - composite_diode_current(model, v - h)) / (2.0 * h)
    assert composite_diode_conductance(model, v) == pytest.approx(fd, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("model", [DIODE, DIODE_RD])
def test_composite_conductance_deep_reverse_bias(model):
    # At -2 V, i + i_s is ~1e-19 of i_s: a finite difference of the current
    # cannot resolve it, so compare with the reverse-saturation asymptote.
    # The current is -i_s there, so the junction sits at v + r_series * i_s.
    v = -2.0
    expected = model.i_s / model.nvt * math.exp((v + model.r_series * model.i_s) / model.nvt)
    assert composite_diode_conductance(model, v) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_rectifier_run_loads_no_scipy_linalg_or_special():
    # Both solvers invert with NumPy and the diode's Wright omega is
    # `wright_omega`: neither the import nor a rectifier cell loads
    # scipy.linalg or scipy.special, which would slow every `import ddmna`.
    src = str(Path(ddmna.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ddmna\n"
         "from ddmna.scenarios import run_cell\n"
         "loaded = lambda: sorted({'scipy.linalg', 'scipy.special'} & set(sys.modules))\n"
         "print(loaded())\n"
         "run_cell('rectifier', 'trapezoidal', 20, 100)\n"
         "print(loaded())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def _omega_arguments() -> np.ndarray:
    """x over [-745, 1e3]: a grid, a denser one over the small-omega starts,
    and each region boundary with its two neighbouring floats."""
    edges = np.array([-745.0, -50.0, -2.0, 1.0, 1e3])
    return np.concatenate([np.linspace(-745.0, 1e3, 20001), np.linspace(-60.0, 5.0, 20001),
                           edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


def test_wright_omega_matches_scipy():
    from scipy.special import wrightomega

    x = _omega_arguments()
    ours = np.array([wright_omega(t) for t in x.tolist()])
    ref = wrightomega(x)
    ulps = np.abs(ours - ref) / np.array([math.ulp(r) for r in ref.tolist()])
    assert ulps.max() <= 4.0


def test_wright_omega_solves_its_equation():
    # w + ln w = x to the rounding of the three terms, plus what w's own
    # half ulp, h = w rel, moves w + ln w by, h - ln(1 - rel): the whole
    # residual where w is subnormal, near x = -745
    eps = np.finfo(float).eps
    for x in _omega_arguments().tolist():
        w = wright_omega(x)
        log_w, rel = math.log(w), math.ulp(w) / w / 2.0
        tol = 4.0 * eps * (abs(x) + w + abs(log_w)) + w * rel - math.log1p(-rel)
        assert abs(w + log_w - x) <= tol, x


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


def test_eval_diode_inversion_consistency():
    v = composite_diode_voltage(DIODE_RD, 1e-3)
    assert composite_diode_current(DIODE_RD, v) == pytest.approx(1e-3, rel=1e-10)


def test_source_values():
    sin = SourceWaveform("SIN", offset=0.0, amplitude=5.0, frequency_hz=100.0)
    assert source_value(sin, 2.5e-3) == pytest.approx(5.0)
    assert source_value(sin, 0.0) == pytest.approx(0.0, abs=1e-12)
    dc = SourceWaveform("DC", dc_value=1.0)
    for t in (0.0, 0.1, 3.0):
        assert source_value(dc, t) == 1.0
