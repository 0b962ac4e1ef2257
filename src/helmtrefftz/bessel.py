"""Bessel functions J0, Y0, J1, Y1 of a positive real argument.

Self-contained evaluation targeting 1e-12 absolute accuracy on (0, 2000]:
ascending power series below x = 16, Hankel large-argument expansion
above.  Both branches accumulate in extended precision (numpy
longdouble) so that the series cancellation near the splitting point
stays below the target.  The Hankel expansion is truncated at its
smallest term, which is ~exp(-2x) < 1.3e-14 for x > 16.
"""

from __future__ import annotations

import numpy as np

__all__ = ["j0_y0", "j1_y1", "hankel1_0", "hankel1_1"]

_SPLIT = 16.0
_SERIES_TERMS = 48
_ASYMPT_TERMS = 40

_LD = np.longdouble
_EULER_GAMMA = _LD("0.57721566490153286060651209008240243")
_PI = _LD("3.14159265358979323846264338327950288")


def _series_terms(x2q: np.ndarray):
    """Yield k, t_k = q^k/(k!)^2, s_k = q^k/(k!(k+1)!), H_k for q = x^2/4."""
    t = np.ones_like(x2q)
    s = np.ones_like(x2q)
    harmonic = _LD(0.0)
    yield 0, t.copy(), s.copy(), harmonic
    for k in range(1, _SERIES_TERMS + 1):
        t = t * x2q / _LD(k * k)
        s = s * x2q / _LD(k * (k + 1))
        harmonic = harmonic + 1.0 / _LD(k)
        yield k, t.copy(), s.copy(), harmonic


def _small_x(x: np.ndarray):
    """Series evaluation of (J0, Y0, J1, Y1) for 0 < x <= _SPLIT."""
    q = x * x / 4.0
    j0 = np.zeros_like(x)
    y0_sum = np.zeros_like(x)  # sum (-1)^{k+1} H_k t_k
    j1_sum = np.zeros_like(x)  # sum (-1)^k s_k
    y1_sum = np.zeros_like(x)  # sum (-1)^k (H_k + H_{k+1}) s_k
    for k, t, s, harmonic in _series_terms(q):
        sign = -1.0 if k % 2 else 1.0
        j0 += sign * t
        y0_sum -= sign * harmonic * t
        j1_sum += sign * s
        y1_sum += sign * (2.0 * harmonic + 1.0 / _LD(k + 1)) * s
    log_term = np.log(x / 2.0) + _EULER_GAMMA
    j1 = (x / 2.0) * j1_sum
    y0 = (2.0 / _PI) * (log_term * j0 + y0_sum)
    y1 = (2.0 / _PI) * log_term * j1 - 2.0 / (_PI * x) - (x / (2.0 * _PI)) * y1_sum
    return j0, y0, j1, y1


def _large_x(x: np.ndarray, nu: int):
    """Hankel expansion for x > _SPLIT, truncated at the smallest term."""
    mu = _LD(4 * nu * nu)
    term = np.ones_like(x)  # a_k(nu) / x^k, signed
    p_sum = np.ones_like(x)
    q_sum = np.zeros_like(x)
    prev_abs = np.full_like(x, np.inf)
    active = np.ones(x.shape, dtype=bool)
    sign = 1.0
    for k in range(1, _ASYMPT_TERMS + 1):
        term = term * (mu - _LD((2 * k - 1) ** 2)) / (_LD(8 * k) * x)
        mag = np.abs(term)
        active &= mag < prev_abs  # freeze once the divergent tail grows
        prev_abs = mag
        if k % 2 == 1:
            q_sum = np.where(active, q_sum + sign * term, q_sum)
            sign = -sign  # i^k cycle advances after each odd k
        else:
            p_sum = np.where(active, p_sum + sign * term, p_sum)
    chi = x - (2 * nu + 1) * _PI / 4.0
    amp = np.sqrt(2.0 / (_PI * x))
    cos_chi, sin_chi = np.cos(chi), np.sin(chi)
    j = amp * (p_sum * cos_chi - q_sum * sin_chi)
    y = amp * (p_sum * sin_chi + q_sum * cos_chi)
    return j, y


def _validate(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("argument must be positive and finite (Y is singular at 0)")
    return arr, scalar


def j0_y0(x):
    """J0 and Y0 at positive real x (scalar or array)."""
    arr, scalar = _validate(x)
    xl = arr.astype(_LD)
    j = np.empty_like(xl)
    y = np.empty_like(xl)
    small = arr <= _SPLIT
    if np.any(small):
        j0s, y0s, _, _ = _small_x(xl[small])
        j[small], y[small] = j0s, y0s
    if np.any(~small):
        j[~small], y[~small] = _large_x(xl[~small], 0)
    jf, yf = j.astype(float), y.astype(float)
    if scalar:
        return float(jf[0]), float(yf[0])
    return jf, yf


def j1_y1(x):
    """J1 and Y1 at positive real x (scalar or array)."""
    arr, scalar = _validate(x)
    xl = arr.astype(_LD)
    j = np.empty_like(xl)
    y = np.empty_like(xl)
    small = arr <= _SPLIT
    if np.any(small):
        _, _, j1s, y1s = _small_x(xl[small])
        j[small], y[small] = j1s, y1s
    if np.any(~small):
        j[~small], y[~small] = _large_x(xl[~small], 1)
    jf, yf = j.astype(float), y.astype(float)
    if scalar:
        return float(jf[0]), float(yf[0])
    return jf, yf


def hankel1_0(x):
    """Hankel function of the first kind, order 0: J0 + i Y0."""
    jv, yv = j0_y0(x)
    return jv + 1j * yv


def hankel1_1(x):
    """Hankel function of the first kind, order 1: J1 + i Y1."""
    jv, yv = j1_y1(x)
    return jv + 1j * yv
