"""Troposphere density model and segment-averaged density quantities.

Air density follows a single power law in altitude,

    rho(h) = c0 * (t0 - lapse * h) ** exponent

which is valid through the troposphere. A model gives ``density(h)`` and
``band_integral(h0, h, power)``, the altitude integral of rho or 1/rho that
the replay's exact charge is built from. The climb plan needs the arithmetic
means of rho and of 1/rho over a uniform altitude grid that includes the
band endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegmentError, DomainError


def _checked_altitude(h, h_max):
    """h as a float array; raises DomainError naming the altitude range
    (not the array) when any entry lies outside [0, h_max]."""
    h_arr = np.asarray(h, dtype=float)
    if (h_arr < 0.0).any() or (h_arr > h_max).any():
        lo, hi = float(np.min(h_arr)), float(np.max(h_arr))
        got = f"{lo:g} m" if lo == hi else f"{lo:g} to {hi:g} m"
        raise DomainError(f"altitude must lie in [0, {h_max:g}] m, got {got}")
    return h_arr


@dataclass(frozen=True)
class AtmosphereModel:
    """Power-law density model for the troposphere.

    Attributes:
        c0: density coefficient  [kg m^-3 K^-4.256]
        t0: base temperature term  [K]
        lapse: temperature drop per meter of altitude  [K m^-1]
        exponent: power-law exponent  [-]
        h_max: validity ceiling  [m]
    """

    c0: float = 4.1748e-11
    t0: float = 288.14
    lapse: float = 0.00649
    exponent: float = 4.256
    h_max: float = 11000.0  # [m] troposphere ceiling

    def density(self, h):
        """Air density at altitude h.

        Args:
            h: geometric altitude in meters; scalar or array.
                Must satisfy 0 <= h <= h_max.

        Returns:
            Density in kg/m^3, same shape as h.
        """
        h_arr = _checked_altitude(h, self.h_max)
        rho = self.c0 * (self.t0 - self.lapse * h_arr) ** self.exponent
        if h_arr.ndim == 0:
            return float(rho)
        return rho

    def band_integral(self, h0, h, power=1):
        """Integral of density**power over altitude from h0 to h  [m],
        scalars or arrays, for power 1 (rho)  [kg m^-2] or -1 (1/rho)
        [m^4 kg^-1]. With T0 = t0 - lapse h0 and k = power * exponent + 1 it
        is -c0^power T0^k / (lapse k) expm1(k log1p(-lapse (h - h0) / T0)),
        which cancels no two powers of order 1e13 and rounds off no climb."""
        k = power * self.exponent + 1.0
        if self.lapse * k == 0.0:
            raise DomainError("band_integral needs a nonzero lapse and "
                              "power * exponent != -1")
        t_lo = self.t0 - self.lapse * _checked_altitude(h0, self.h_max)
        dh = _checked_altitude(h, self.h_max) - h0
        out = (-self.c0**power * t_lo**k / (self.lapse * k)
               * np.expm1(k * np.log1p(-self.lapse * dh / t_lo)))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ConstantAtmosphere:
    """Stub model with uniform density, for closed-form cross-checks."""

    value: float  # [kg m^-3]
    h_max: float = float("inf")  # [m]

    def density(self, h):
        h_arr = _checked_altitude(h, self.h_max)
        if h_arr.ndim == 0:
            return self.value
        return np.full_like(h_arr, self.value)

    def band_integral(self, h0, h, power=1):
        span = (_checked_altitude(h, self.h_max)
                - _checked_altitude(h0, self.h_max))
        return self.value**power * (float(span) if span.ndim == 0 else span)


#: Default troposphere model used throughout the package.
TROPOSPHERE = AtmosphereModel()

#: Most points a sampling grid may take, 136 times the rows of the bundled
#: climb's 0.01 s profile; a finer step is a domain error, not an allocation.
_MAX_GRID_POINTS = 10**7


def _check_grid(span, step, name, unit):
    """DomainError unless a grid of this step over span fits the cap."""
    if not span / step <= _MAX_GRID_POINTS:
        raise DomainError(f"{name} {step:g} {unit} needs {span / step:.4g} grid"
                          f" points, more than the {_MAX_GRID_POINTS:.0e} allowed")


def _altitude_grid(h0, hc, step):
    """Uniform inclusive grid from h0 to hc.

    The last point is pinned to hc exactly so the band endpoints always
    participate in the average, regardless of whether step divides the span.
    """
    if hc <= h0:
        raise DegenerateSegmentError(
            f"altitude band must climb: h0={h0!r}, hc={hc!r}"
        )
    if step <= 0.0:
        raise DomainError(f"grid step must be positive, got {step!r}")
    _check_grid(hc - h0, step, "atmosphere step", "m")
    n = int(np.ceil((hc - h0) / step - 1e-12))
    grid = h0 + step * np.arange(n + 1)
    grid[-1] = hc
    return grid


def mean_density(model, h0, hc, step=1.0):
    """Arithmetic mean of density over the inclusive grid h0, h0+step, ..., hc.

    The divisor is the number of grid samples, so a two-point grid returns
    the plain average of the endpoint densities.

    Args:
        model: object exposing ``density(h)``; normally :data:`TROPOSPHERE`.
        h0: band bottom  [m]
        hc: band top  [m]
        step: grid spacing  [m], default 1 m.

    Returns:
        Mean density in kg/m^3.
    """
    grid = _altitude_grid(h0, hc, step)
    return float(np.mean(model.density(grid)))


def mean_inverse_density(model, h0, hc, step=1.0):
    """Arithmetic mean of 1/density over the same inclusive grid.

    By Jensen's inequality this is always >= 1/mean_density for any band.
    """
    grid = _altitude_grid(h0, hc, step)
    return float(np.mean(1.0 / model.density(grid)))
