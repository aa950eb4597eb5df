"""Modified Bessel function of the second kind, integer order.

Thin wrappers over ``scipy.special.kve``, the exponentially scaled
e^x K_v(x), on the supported window 1e-3 <= x <= 1e3, 0 <= v <= 40; over
that window (41 orders x 300 log-spaced points) kve's worst relative error
against mpmath, the test reference, is 2.0e-14, inside the 1e-12 stated
here.  Values are Python floats.  The unscaled value underflows binary64
for x beyond about 700, so callers in that tail must use
:func:`bessel_k_scaled`.  The 50-digit K_n of the identity battery are
summed in ``decimal`` by ``archimedean._besselk_50``.
"""

from __future__ import annotations

import math

from scipy.special import kve

from .errors import ValidationError

X_MIN, X_MAX = 1e-3, 1e3
V_MAX = 40


def bessel_k_scaled(v: int, x: float) -> float:
    """e^x K_v(x) for integer 0 <= v <= 40 and 1e-3 <= x <= 1e3."""
    if not X_MIN <= x <= X_MAX:
        raise ValidationError(f"x = {x} outside supported range [{X_MIN}, {X_MAX}]")
    if not 0 <= v <= V_MAX:
        raise ValidationError(f"order v = {v} outside supported range [0, {V_MAX}]")
    return float(kve(v, x))


def bessel_k(v: int, x: float) -> float:
    """K_v(x); underflows to 0 for x beyond roughly 700 (use the scaled form there)."""
    return math.exp(-x) * bessel_k_scaled(v, x)
