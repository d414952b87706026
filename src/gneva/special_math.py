"""Special functions and 2x2 SPD linear algebra.

Everything here is self-contained: log-gamma uses the Lanczos approximation
(g=7, 9 coefficients) and digamma/trigamma use recurrence shifts into the
asymptotic regime, all accurate to ~1e-13. Matrices are fixed-size 2x2,
held as their entries (a11, a12, a22); the closed-form Cholesky replaces
general linear algebra.
The special functions take floats or arrays, with the same arithmetic, and
return numpy values of the argument's shape.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

LOG_PI = math.log(math.pi)
LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)

# Lanczos approximation, g=7, n=9 (double-precision coefficient set).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Asymptotic series coefficients: B_{2n}/(2n) for digamma, B_{2n} for trigamma.
_DIGAMMA_SHIFT = 10.0
_DIGAMMA_SERIES = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_TRIGAMMA_SERIES = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def log_gamma(x):
    """log |Gamma(x)| for real x (a float or an array), poles excluded."""
    x = np.asarray(x, dtype=float)
    if ((x <= 0.0) & (x == np.floor(x))).any():
        raise DomainError(f"log_gamma pole at non-positive integer in {x}")
    # Reflection for x < 0.5: Gamma(x) Gamma(1-x) = pi / sin(pi x).
    reflect = x < 0.5
    z = np.where(reflect, 1.0 - x, x)
    # acc = c_0 + sum_i c_i / (z - 1 + i), summed in i order like a scalar loop.
    terms = np.divide(_LANCZOS_COEF[1:], (z - 1.0)[..., None] + np.arange(1.0, len(_LANCZOS_COEF)))
    terms[..., 0] += _LANCZOS_COEF[0]
    acc = np.add.accumulate(terms, axis=-1)[..., -1]
    t = z + _LANCZOS_G - 0.5
    out = np.asarray(0.5 * LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(acc))
    if reflect.any():
        out[reflect] = LOG_PI - np.log(np.abs(np.sin(math.pi * x[reflect]))) - out[reflect]
    return out


def _shift_up(x: np.ndarray, term) -> tuple[np.ndarray, np.ndarray]:
    """`while x < shift: acc += term(x); x += 1` for every entry at once, in that order."""
    # Any x > 0 reaches the shift within ceil(shift) steps.
    steps = np.ones((int(math.ceil(_DIGAMMA_SHIFT)) + 1,) + x.shape)
    steps[0] = x
    np.add.accumulate(steps, axis=0, out=steps)
    low = steps < _DIGAMMA_SHIFT
    acc = np.add.accumulate(np.where(low, term(steps), 0.0), axis=0)[-1]
    return np.where(low, np.inf, steps).min(axis=0), acc


def _series(first, ratio, coefs) -> np.ndarray:
    """sum_k coefs[k] first ratio^k, each power one product after the last, summed in k order."""
    factors = np.repeat(np.asarray(ratio)[..., None], len(coefs), axis=-1)
    factors[..., 0] = first
    return np.add.accumulate(np.multiply.accumulate(factors, axis=-1) * coefs, axis=-1)[..., -1]


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0 (a float or an array)."""
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError(f"digamma requires x > 0, got {x}")
    x, acc = _shift_up(x, lambda v: -1.0 / v)
    inv2 = 1.0 / (x * x)
    return acc + np.log(x) - 0.5 / x - _series(inv2, inv2, _DIGAMMA_SERIES)


def trigamma(x):
    """psi'(x) for x > 0 (a float or an array); the derivative of digamma."""
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError(f"trigamma requires x > 0, got {x}")
    x, acc = _shift_up(x, lambda v: 1.0 / (v * v))
    inv = 1.0 / x
    inv2 = inv * inv
    return acc + inv + 0.5 * inv2 + _series(inv * inv2, inv2, _TRIGAMMA_SERIES)


def log_sum_exp(values, axis=None):
    """log sum exp(values) over `axis` (default all), max-shifted; exact for one element."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if values.size == 0:
        raise DomainError("log_sum_exp of an empty sequence")
    m = values.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    shifted = values - m
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        return np.log(shifted.sum(axis=axis)) + np.squeeze(m, axis)


def spd_from_cholesky(l11, l21, l22):
    """Entries (a11, a12, a22) of L L^T for the factor L = [[l11, 0], [l21, l22]]; floats or arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        return l11 * l11, l11 * l21, l21 * l21 + l22 * l22


def spd_cholesky(a11, a12, a22):
    """(l11, l21, l22) of the lower factor L with L L^T = [[a11, a12], [a12, a22]]; floats or arrays."""
    l11 = np.sqrt(a11)
    l21 = a12 / l11
    return l11, l21, np.sqrt(a22 - l21 * l21)
