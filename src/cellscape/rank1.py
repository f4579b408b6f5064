"""The one reduction of rank-1 gradient variances, for the network and the theory."""

import numpy as np


def sum_of_squares(g, x):
    """The centred sum of squares of the n rank-1 terms ``g[i] (x) x[i]`` of
    ``g`` (n, out) and ``x`` (n, in): S - ||g.T @ x||^2 / n, where S = sum_i
    ||g[i]||^2 ||x[i]||^2 and g.T @ x / n is the terms' mean.

    Each factor is first scaled by a power of two that brings its largest
    magnitude into [0.5, 1), which is exact, so no square overflows and the
    result overflows only where the sum of squares does.  Rounding can reach
    a term of the two sums k = 3n + out*in + out + in + 2 times, so
    k * eps * S is twice their first-order error bound: a result at or below
    it, such as that of equal rows, is exactly 0.  Non-finite factors give
    NaN.
    """
    (n, fan_out), fan_in = g.shape, x.shape[1]
    eg, ex = (np.frexp(np.max(np.abs(a)))[1] for a in (g, x))
    g, x = np.ldexp(g, -eg), np.ldexp(x, -ex)
    s = np.square(g).sum(axis=1) @ np.square(x).sum(axis=1)
    gx = g.T @ x
    result = s - np.vdot(gx, gx) / n
    if result <= (3 * n + fan_out * fan_in + fan_out + fan_in + 2) * np.finfo(float).eps * s:
        result = 0.0
    return float(np.ldexp(result, 2 * (eg + ex)))
