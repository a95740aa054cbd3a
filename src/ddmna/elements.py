"""Analytic element models: linear R/C/L, voltage-dependent MLCC capacitor,
Shockley diode with series resistance, and source waveforms.

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


def shockley_conductance(model: ShockleyDiodeModel, v_d: float) -> float:
    """di/dv of the junction at junction voltage v_d."""
    arg = min(v_d / model.nvt, EXP_CLAMP)
    return model.i_s / model.nvt * math.exp(arg)


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


def composite_diode_current(model: ShockleyDiodeModel, v: float,
                            tol: float = 1e-15, max_iter: int = 200) -> float:
    """Terminal current of the diode + series resistor at terminal voltage v.

    Solves v = v_j + r_series * i(v_j) for the junction voltage with a
    bracketed Newton iteration (bisection fallback on overshoot).
    """
    if model.r_series == 0.0:
        return shockley_current(model, v)
    # g(u) = u + R i(u) - v is strictly increasing in the junction voltage u.
    if v <= 0.0:
        lo, hi = v, 0.0
    else:
        lo, hi = 0.0, min(v, model.nvt * EXP_CLAMP)
        while _composite_gap(model, hi, v) < 0.0:  # only if clamp kicked in
            hi += model.nvt
    u = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = _composite_gap(model, u, v)
        if g > 0.0:
            hi = u
        else:
            lo = u
        dg = 1.0 + model.r_series * shockley_conductance(model, u)
        step = g / dg
        u_new = u - step
        if not (lo < u_new < hi):
            u_new = 0.5 * (lo + hi)
        if abs(u_new - u) <= tol * (abs(u) + model.nvt):
            u = u_new
            break
        u = u_new
    else:
        raise RuntimeError("composite diode current solve did not converge")
    return shockley_current(model, u)


def composite_diode_conductance(model: ShockleyDiodeModel, v: float) -> float:
    """di/dv of the composite diode + series resistor at terminal voltage v."""
    i = composite_diode_current(model, v)
    u = v - model.r_series * i
    g_j = shockley_conductance(model, u)
    return g_j / (1.0 + model.r_series * g_j)


def _composite_gap(model: ShockleyDiodeModel, u: float, v: float) -> float:
    return u + model.r_series * shockley_current(model, u) - v


def mlcc_capacitance(model: MlccCapacitorModel, v):
    """Differential capacitance C(v)."""
    v_arr = np.asarray(v, dtype=float)
    out = model.cinf + (model.c0 - model.cinf) / (1.0 + (v_arr / model.v0) ** 2)
    return float(out) if np.ndim(v) == 0 else out


def mlcc_charge(model: MlccCapacitorModel, v):
    """Stored charge q(v), the exact antiderivative of C(v) with q(0) = 0."""
    v_arr = np.asarray(v, dtype=float)
    out = model.cinf * v_arr + (model.c0 - model.cinf) * model.v0 * np.arctan(v_arr / model.v0)
    return float(out) if np.ndim(v) == 0 else out


def capacitor_charge(model, v):
    """Charge of a capacitor model (linear or MLCC) at voltage v."""
    if isinstance(model, LinearModel):
        return model.value * np.asarray(v, dtype=float) if np.ndim(v) else model.value * v
    if isinstance(model, MlccCapacitorModel):
        return mlcc_charge(model, v)
    raise TypeError(f"not a capacitor model: {model!r}")


def capacitor_capacitance(model, v):
    """Differential capacitance dq/dv at voltage v."""
    if isinstance(model, LinearModel):
        return model.value if np.ndim(v) == 0 else np.full(np.shape(v), model.value)
    if isinstance(model, MlccCapacitorModel):
        return mlcc_capacitance(model, v)
    raise TypeError(f"not a capacitor model: {model!r}")


def capacitor_voltage_from_charge(model, q: float, tol: float = 1e-14, max_iter: int = 100) -> float:
    """Invert q(v) for a capacitor model; q(v) is strictly increasing."""
    if isinstance(model, LinearModel):
        return q / model.value
    # Newton on the monotone q(v); C(v) >= cinf > 0 keeps it well behaved.
    v = q / model.cinf
    for _ in range(max_iter):
        step = (mlcc_charge(model, v) - q) / mlcc_capacitance(model, v)
        v -= step
        if abs(step) <= tol * (abs(v) + model.v0):
            return v
    raise RuntimeError("capacitor charge inversion did not converge")


def conductor_current(model, v):
    """Current of a static conductive element (linear resistor or diode) at voltage v."""
    if isinstance(model, LinearModel):
        return model.value * v
    if isinstance(model, ShockleyDiodeModel):
        if np.ndim(v) == 0:
            return composite_diode_current(model, v)
        return np.array([composite_diode_current(model, float(x)) for x in np.asarray(v)])
    raise TypeError(f"not a conductive element model: {model!r}")


def conductor_conductance(model, v):
    """di/dv of a static conductive element at voltage v."""
    if isinstance(model, LinearModel):
        return model.value
    if isinstance(model, ShockleyDiodeModel):
        return composite_diode_conductance(model, v)
    raise TypeError(f"not a conductive element model: {model!r}")
