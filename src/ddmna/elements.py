"""Analytic element models: linear R/C/L, voltage-dependent MLCC capacitor,
closed-form Shockley diode with series resistance, and source waveforms.

These serve three purposes: they drive the traditional reference solver,
they synthesize measurement data for the data-driven solver, and they
provide the "true" parameters used by the error metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Arguments of exp() are clamped here to avoid float overflow at untested
# operating points (exp(200) ~ 7e86 still fits in a double).
EXP_CLAMP = 200.0

# Stop test and iteration cap of the MLCC charge -> voltage Newton inversion.
CHARGE_TOL, CHARGE_MAX_ITER = 1e-14, 100

# The relative error estimate below which `wright_omega` takes no second
# Fritsch-Shafer-Crowley step.
OMEGA_TOL = 2.220446049250313e-16


class ModelDomainError(ValueError):
    """Raised when an element model is evaluated outside its domain."""


@dataclass(frozen=True)
class LinearModel:
    """Constant-coefficient element: kind 'G' (siemens), 'C' (farads) or 'L' (henries)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("G", "C", "L"):
            raise ValueError(f"unknown linear element kind {self.kind!r}")
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError(f"linear coefficient must be positive and finite, got {self.value}")


@dataclass(frozen=True)
class MlccCapacitorModel:
    """Voltage-dependent capacitor with a Lorentzian capacitance roll-off.

    C(v) = cinf + (c0 - cinf) / (1 + (v/v0)^2); drops from c0 at low bias to
    the cinf plateau, the typical multi-layer ceramic capacitor behavior.
    """

    c0: float
    cinf: float
    v0: float

    def __post_init__(self):
        if not (self.c0 > self.cinf > 0.0):
            raise ValueError("MLCC model requires c0 > cinf > 0")
        if not self.v0 > 0.0:
            raise ValueError("MLCC roll-off scale v0 must be positive")


@dataclass(frozen=True)
class ShockleyDiodeModel:
    """Exponential diode i = i_s (exp(v/(n vT)) - 1) with optional series resistance."""

    i_s: float
    n_ideality: float
    v_t: float
    r_series: float = 0.0

    def __post_init__(self):
        if not (self.i_s > 0.0 and self.v_t > 0.0 and self.n_ideality > 0.0):
            raise ValueError("Shockley model requires i_s, v_t, n_ideality > 0")
        if self.r_series < 0.0:
            raise ValueError("series resistance must be non-negative")

    @property
    def nvt(self) -> float:
        return self.n_ideality * self.v_t


@dataclass(frozen=True)
class SourceWaveform:
    """DC or sinusoidal source value over time."""

    kind: str  # "DC" | "SIN"
    dc_value: float = 0.0
    offset: float = 0.0
    amplitude: float = 0.0
    frequency_hz: float = 0.0

    def __post_init__(self):
        if self.kind not in ("DC", "SIN"):
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        if self.kind == "SIN" and not self.frequency_hz > 0.0:
            raise ValueError("SIN waveform requires a positive frequency")


def source_value(waveform: SourceWaveform, t: float) -> float:
    """Evaluate a source waveform at time t (seconds)."""
    if waveform.kind == "DC":
        return waveform.dc_value
    return waveform.offset + waveform.amplitude * math.sin(2.0 * math.pi * waveform.frequency_hz * t)


def shockley_current(model: ShockleyDiodeModel, v_d):
    """Junction current for junction voltage v_d (series resistance excluded)."""
    arg = np.clip(np.asarray(v_d, dtype=float) / model.nvt, None, EXP_CLAMP)
    out = model.i_s * np.expm1(arg)
    return float(out) if np.isscalar(v_d) or np.ndim(v_d) == 0 else out


def shockley_conductance(model: ShockleyDiodeModel, v_d):
    """di/dv of the junction at junction voltage v_d."""
    if isinstance(v_d, float):
        return model.i_s / model.nvt * float(np.exp(min(v_d / model.nvt, EXP_CLAMP)))
    out = model.i_s / model.nvt * np.exp(np.minimum(np.divide(v_d, model.nvt), EXP_CLAMP))
    return float(out) if np.ndim(v_d) == 0 else out


def composite_diode_voltage(model: ShockleyDiodeModel, i):
    """Terminal voltage of the diode + series resistor at current i.

    Closed-form inverse of the composite v -> i map:
    v = n vT ln(1 + i/i_s) + r_series * i, valid for i > -i_s.
    """
    i_arr = np.asarray(i, dtype=float)
    if np.any(i_arr <= -model.i_s):
        raise ModelDomainError(f"diode current must exceed -i_s = {-model.i_s}")
    out = model.nvt * np.log1p(i_arr / model.i_s) + model.r_series * i_arr
    return float(out) if np.ndim(i) == 0 else out


def _fsc_step(x: float, w: float) -> tuple[float, float, float]:
    """One Fritsch-Shafer-Crowley step for w + ln w = x from w: the new w,
    the residual r = x - w - ln w and w + 1 at the old w."""
    r = x - w - math.log(w)
    wp1 = w + 1.0
    t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r)), r, wp1


def wright_omega(x: float) -> float:
    """The Wright omega function of a real x: the w with w + ln w = x.

    A start per region, exp(x) below -2, exp(2 (x - 1) / 3) on [-2, 1) and
    two terms of the asymptotic series x - ln x + ln x / x from 1 on, then one
    Fritsch-Shafer-Crowley step (`_fsc_step`), and a second when the first's
    error estimate exceeds OMEGA_TOL (Lawrence, Corless & Jeffrey, "Algorithm
    917", ACM TOMS 38 (2012)).  Below -50, exp(x) is omega to double
    precision; above 1e20, x is.  This is the arithmetic of
    scipy.special.wrightomega on reals, and it returns the same bits.  On
    (-40, -2) the residual x - w - ln w cancels terms of size |x|, so there w
    can be some 30 ulps off omega, as SciPy's is (32 at x = -33.27, against a
    200-bit value).
    """
    if x < -50.0:
        return math.exp(x)
    if x > 1e20:
        return x
    if x < -2.0:
        w = math.exp(x)
    elif x < 1.0:
        w = math.exp(2.0 * (x - 1.0) / 3.0)
    else:
        w = math.log(x)
        w = x - w + w / x
    w, r, wp1 = _fsc_step(x, w)
    if abs((2.0 * w * w - 8.0 * w - 1.0) * abs(r) ** 4.0) >= OMEGA_TOL * 72.0 * wp1 ** 6.0:
        w = _fsc_step(x, w)[0]
    return w


def composite_diode_current(model: ShockleyDiodeModel, v):
    """Terminal current of the diode + series resistor at terminal voltage v.

    Closed form (Banwell & Jayakumar, 2000): with a = i_s R / (n vT) and omega
    the Wright omega function (`wright_omega`, which does not overflow where
    exp would), i = (n vT/R) omega(ln a + a + v/(n vT)) - i_s.  An array's
    entries go through the scalar function one by one, so each equals the
    scalar result bit for bit.
    """
    if model.r_series == 0.0:
        return shockley_current(model, v)
    nvt = model.nvt
    a = model.i_s * model.r_series / nvt
    scale, offset = nvt / model.r_series, math.log(a) + a
    if isinstance(v, float):
        return scale * wright_omega(offset + v / nvt) - model.i_s
    x = offset + np.asarray(v, dtype=float) / nvt
    out = scale * np.array([wright_omega(t) for t in x.ravel().tolist()]).reshape(x.shape) \
        - model.i_s
    return float(out) if np.ndim(v) == 0 else out


def composite_diode_conductance(model: ShockleyDiodeModel, v, i=None):
    """di/dv of the composite diode + series resistor at terminal voltage v;
    pass the current `i` at v when it is already known."""
    if i is None:
        i = composite_diode_current(model, v)
    u = v - model.r_series * i
    g_j = shockley_conductance(model, u)
    return g_j / (1.0 + model.r_series * g_j)


def mlcc_capacitance(model: MlccCapacitorModel, v):
    """Differential capacitance C(v)."""
    scalar = isinstance(v, float)
    u = (v if scalar else np.asarray(v, dtype=float)) / model.v0
    out = model.cinf + (model.c0 - model.cinf) / (1.0 + u * u)
    return float(out) if scalar or np.ndim(v) == 0 else out


def mlcc_charge(model: MlccCapacitorModel, v):
    """Stored charge q(v), the exact antiderivative of C(v) with q(0) = 0."""
    scalar = isinstance(v, float)
    v_arr = v if scalar else np.asarray(v, dtype=float)
    out = model.cinf * v_arr + (model.c0 - model.cinf) * model.v0 * np.arctan(v_arr / model.v0)
    return float(out) if scalar or np.ndim(v) == 0 else out


def capacitor_voltage_from_charge(model, q: float) -> float:
    """Invert q(v) for a capacitor model; q(v) is strictly increasing."""
    if isinstance(model, LinearModel):
        return q / model.value
    # Newton on the monotone q(v); C(v) >= cinf > 0 keeps it well behaved.
    v = q / model.cinf
    for _ in range(CHARGE_MAX_ITER):
        step = (mlcc_charge(model, v) - q) / mlcc_capacitance(model, v)
        v -= step
        if abs(step) <= CHARGE_TOL * (abs(v) + model.v0):
            return v
    raise RuntimeError("capacitor charge inversion did not converge")


def conductor_conductance(model, v):
    """di/dv of a static conductive element at voltage v."""
    if isinstance(model, LinearModel):
        return model.value
    if isinstance(model, ShockleyDiodeModel):
        return composite_diode_conductance(model, v)
    raise TypeError(f"not a conductive element model: {model!r}")


def response_slope(model, v):
    """(i, di/dv) of a diode or (q, dq/dv) of an MLCC capacitor at voltage v,
    evaluating the diode current once."""
    if isinstance(model, ShockleyDiodeModel):
        i = composite_diode_current(model, v)
        return i, composite_diode_conductance(model, v, i)
    return mlcc_charge(model, v), mlcc_capacitance(model, v)
