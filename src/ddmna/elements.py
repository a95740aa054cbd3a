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

# scipy.special.wrightomega, imported on first use: scipy.special slows `import ddmna`
_wrightomega = None


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


def composite_diode_current(model: ShockleyDiodeModel, v):
    """Terminal current of the diode + series resistor at terminal voltage v.

    Closed form (Banwell & Jayakumar, 2000): with a = i_s R / (n vT) and omega
    the overflow-free Wright omega, i = (n vT/R) omega(ln a + a + v/(n vT)) - i_s.
    """
    global _wrightomega
    if model.r_series == 0.0:
        return shockley_current(model, v)
    if _wrightomega is None:
        from scipy.special import wrightomega as _wrightomega
    a = model.i_s * model.r_series / model.nvt
    scalar = isinstance(v, float)
    x = math.log(a) + a + (v if scalar else np.asarray(v, dtype=float)) / model.nvt
    out = model.nvt / model.r_series * _wrightomega(x) - model.i_s
    return float(out) if scalar or np.ndim(v) == 0 else out


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
