"""Special functions and 2x2 SPD linear algebra.

Everything here is self-contained: log-gamma uses the Lanczos approximation
(g=7, 9 coefficients) and digamma/trigamma use recurrence shifts into the
asymptotic regime, all accurate to ~1e-13. Matrices are fixed-size 2x2; the
closed-form Cholesky/determinant/adjugate replaces general linear algebra.
The special functions take floats or arrays, with the same arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, NotPositiveDefinite

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


def _result(values: np.ndarray):
    """A float for a scalar argument, the array otherwise."""
    return float(values) if values.ndim == 0 else values


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
    return _result(out)


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
    return _result(acc + np.log(x) - 0.5 / x - _series(inv2, inv2, _DIGAMMA_SERIES))


def trigamma(x):
    """psi'(x) for x > 0 (a float or an array); the derivative of digamma."""
    x = np.asarray(x, dtype=float)
    if (x <= 0.0).any():
        raise DomainError(f"trigamma requires x > 0, got {x}")
    x, acc = _shift_up(x, lambda v: 1.0 / (v * v))
    inv = 1.0 / x
    inv2 = inv * inv
    return _result(acc + inv + 0.5 * inv2 + _series(inv * inv2, inv2, _TRIGAMMA_SERIES))


def log_multivariate_gamma(a: float, d: int) -> float:
    """log Gamma_d(a) = d(d-1)/4 * log pi + sum_j log Gamma(a + (1-j)/2)."""
    _check_mv_domain(a, d, "log_multivariate_gamma")
    out = 0.25 * d * (d - 1) * LOG_PI
    for j in range(1, d + 1):
        out += log_gamma(a + 0.5 * (1 - j))
    return out


def multivariate_digamma(a: float, d: int) -> float:
    """psi_d(a) = sum_j psi(a + (1-j)/2); derivative of log Gamma_d."""
    _check_mv_domain(a, d, "multivariate_digamma")
    return sum(digamma(a + 0.5 * (1 - j)) for j in range(1, d + 1))


def _check_mv_domain(a: float, d: int, name: str) -> None:
    if d < 1:
        raise DomainError(f"{name} requires a positive dimension, got {d}")
    if a <= 0.5 * (d - 1):
        raise DomainError(f"{name} requires a > (d-1)/2 = {0.5 * (d - 1)}, got {a}")


def log_sum_exp(values, axis=None):
    """log sum exp(values) over `axis` (default all), max-shifted; exact for one element."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise DomainError("log_sum_exp of an empty sequence")
    m = values.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return _result(np.log(np.exp(values - m).sum(axis=axis)) + np.squeeze(m, axis))


# Relative tolerances of the positive-definiteness guard; values below these
# would make the downstream Cholesky numerically useless.
_PD_ABS_TOL = 1e-12
_PD_REL_TOL = 1e-12


@dataclass(frozen=True)
class SPDMatrix2:
    """Symmetric positive-definite 2x2 matrix with a cached Cholesky factor.

    Stored as the three free entries of the symmetric matrix
    [[a11, a12], [a12, a22]]. Construction rejects matrices that fail the
    leading-minor test.
    """

    a11: float
    a12: float
    a22: float

    def __post_init__(self):
        a11, a12, a22 = float(self.a11), float(self.a12), float(self.a22)
        object.__setattr__(self, "a11", a11)
        object.__setattr__(self, "a12", a12)
        object.__setattr__(self, "a22", a22)
        if not (math.isfinite(a11) and math.isfinite(a12) and math.isfinite(a22)):
            raise NotPositiveDefinite(f"non-finite entries: {a11}, {a12}, {a22}")
        det = a11 * a22 - a12 * a12
        if a11 <= _PD_ABS_TOL or det <= _PD_REL_TOL * a11 * a22:
            raise NotPositiveDefinite(
                f"leading minors {a11:.3e}, {det:.3e} fail the positivity test"
            )

    @classmethod
    def identity(cls) -> "SPDMatrix2":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def from_array(cls, m) -> "SPDMatrix2":
        return cls(float(m[0][0]), 0.5 * (float(m[0][1]) + float(m[1][0])), float(m[1][1]))

    @classmethod
    def from_cholesky(cls, l11: float, l21: float, l22: float) -> "SPDMatrix2":
        return cls(l11 * l11, l11 * l21, l21 * l21 + l22 * l22)

    @cached_property
    def cholesky(self) -> tuple[float, float, float]:
        """(l11, l21, l22) of the lower factor L with L L^T = self."""
        l11 = math.sqrt(self.a11)
        l21 = self.a12 / l11
        l22 = math.sqrt(self.a22 - l21 * l21)
        return (l11, l21, l22)

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    @property
    def log_det(self) -> float:
        l11, _, l22 = self.cholesky
        return 2.0 * (math.log(l11) + math.log(l22))

    @property
    def trace(self) -> float:
        return self.a11 + self.a22

    def inverse(self) -> "SPDMatrix2":
        d = self.det
        return SPDMatrix2(self.a22 / d, -self.a12 / d, self.a11 / d)

    def quad_form(self, dx: float, dy: float) -> float:
        """(dx, dy)^T M (dx, dy)."""
        return self.a11 * dx * dx + 2.0 * self.a12 * dx * dy + self.a22 * dy * dy

    def trace_product(self, other: "SPDMatrix2") -> float:
        """trace(self @ other) for symmetric other."""
        return self.a11 * other.a11 + 2.0 * self.a12 * other.a12 + self.a22 * other.a22

    def scaled(self, s: float) -> "SPDMatrix2":
        return SPDMatrix2(self.a11 * s, self.a12 * s, self.a22 * s)

    def to_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]], dtype=float)
