"""The one reduction of rank-1 gradient variances, for the network and the
theory.  ``scaled`` is the one place where a factor is scaled and its rows
reduced, so a caller that reads a factor twice scales it once."""

import numpy as np


def scaled(a):
    """(a * 2^-e, e, the scaled array's row sums of squares) of an (n, k)
    factor ``a``, e being the power of two that brings max|a| into [0.5, 1),
    which is exact; an all-zero ``a`` has e = 0."""
    e = np.frexp(np.max(np.abs(a)))[1]
    a = np.ldexp(a, -e)
    return a, e, np.square(a).sum(axis=1)


def sum_of_squares(g, x):
    """The centred sum of squares of the n rank-1 terms ``g[i] (x) x[i]`` of
    ``g`` (n, out) and ``x`` (n, in), each given as its ``scaled`` triple:
    S - ||g.T @ x||^2 / n, where S = sum_i ||g[i]||^2 ||x[i]||^2 and
    g.T @ x / n is the terms' mean.

    Each factor is scaled by a power of two that brings its largest
    magnitude into [0.5, 1), which is exact, so no square overflows and the
    result overflows only where the sum of squares does.  Rounding can reach
    a term of the two sums k = 3n + out*in + out + in + 2 times, so
    k * eps * S is twice their first-order error bound: a result at or below
    it, such as that of equal rows, is exactly 0.  Non-finite factors give
    NaN.
    """
    (g, eg, gg), (x, ex, xx) = g, x
    (n, fan_out), fan_in = g.shape, x.shape[1]
    s = gg @ xx
    gx = g.T @ x
    result = s - np.vdot(gx, gx) / n
    if result <= (3 * n + fan_out * fan_in + fan_out + fan_in + 2) * np.finfo(float).eps * s:
        result = 0.0
    return float(np.ldexp(result, 2 * (eg + ex)))
