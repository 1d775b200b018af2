"""Independent reference computations for checking lspfit's outputs.

Nothing here calls lspfit. Scalar formulas use only the ``math`` module;
the AUC reference is a plain numpy midpoint sum with its own logistic, so a
fault in the program's curve, likelihood, quadrature or seeding code cannot
hide behind the same fault in the check.
"""

from __future__ import annotations

import math

import numpy as np

# Default prior support for index bounds (0, 1), as documented for
# ``default_priors``: every bound is strict.
A1 = (0.0, 1.0)
A3 = (0.0, 1.0)
A5 = (-0.01, 0.01)
A6 = (0.0, 1.0)
A7 = (1.0, 365.0)
A4_LO = 1.0


def logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def crossover(a3, a4, a6, a7) -> float:
    """Day where the spring and autumn branches meet."""
    return (a3 * a4 + a6 * a7) / (a3 + a6)


def curve(t: float, a) -> float:
    """Double-logistic curve at day ``t``, spring branch to the crossover."""
    a1, a2, a3, a4, a5, a6, a7 = (float(v) for v in a[:7])
    if t <= crossover(a3, a4, a6, a7):
        rate = a3 * (t - a4)
    else:
        rate = a6 * (a7 - t)
    return a1 + (a2 - a5 * t) * logistic(rate)


def curve_array(t, a1, a2, a3, a4, a5, a6, a7):
    """``curve`` for numpy arrays that broadcast against each other."""
    d = crossover(a3, a4, a6, a7)
    rate = np.where(t <= d, a3 * (t - a4), a6 * (a7 - t))
    return a1 + (a2 - a5 * t) * (0.5 + 0.5 * np.tanh(0.5 * rate))


def normal_logpdf(y, mu, s2) -> float:
    return -0.5 * math.log(2.0 * math.pi * s2) - (y - mu) ** 2 / (2.0 * s2)


def std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def tnormal_logpdf(y, mu, s2, a=0.0, b=1.0) -> float:
    if y < a or y > b:
        return -math.inf
    sd = math.sqrt(s2)
    za, zb = (a - mu) / sd, (b - mu) / sd
    if za > 0.0:  # both tails on the right: use upper-tail masses
        mass = std_normal_cdf(-za) - std_normal_cdf(-zb)
    else:
        mass = std_normal_cdf(zb) - std_normal_cdf(za)
    return normal_logpdf(y, mu, s2) - math.log(mass)


def beta_logpdf(y, mu, s2) -> float:
    """Beta density with mean ``mu`` and precision ``1/s2``."""
    if not (0.0 < mu < 1.0 and 0.0 < y < 1.0):
        return -math.inf
    phi = 1.0 / s2
    p, q = mu * phi, (1.0 - mu) * phi
    return (math.lgamma(phi) - math.lgamma(p) - math.lgamma(q)
            + (p - 1.0) * math.log(y) + (q - 1.0) * math.log1p(-y))


LOGPDF = {"normal": normal_logpdf, "tnormal": tnormal_logpdf,
          "beta": beta_logpdf}


def series_loglik(kind: str, doys, values, draw) -> float:
    """Summed log-density of a series at one (alpha1..alpha7, sigma2) draw."""
    s2 = float(draw[7])
    total = 0.0
    for t, y in zip(doys, values):
        total += LOGPDF[kind](float(y), curve(float(t), draw), s2)
    return total


def in_prior_support(draw) -> bool:
    """Strict membership in the default prior support for bounds (0, 1)."""
    a1, a2, a3, a4, a5, a6, a7, s2 = (float(v) for v in draw)
    return (A1[0] < a1 < A1[1] and 0.0 < a2 < 1.0 - a1
            and A3[0] < a3 < A3[1] and A4_LO < a4 < a7
            and A5[0] < a5 < A5[1] and A6[0] < a6 < A6[1]
            and A7[0] < a7 < A7[1] and s2 > 0.0)


def retained_count(n_samples: int, sub_start: int, sub_thin: int) -> int:
    """Iterations sub_start, sub_start + thin, ... up to n_samples."""
    return (n_samples - sub_start) // sub_thin + 1


def splitmix64_seed(base: int, row: int, col: int, cols: int) -> int:
    """The pixel seed: splitmix64's output for stream step ``index + 1``."""
    gamma = 0x9E3779B97F4A7C15
    state = (base + gamma * (row * cols + col + 1)) % (1 << 64)
    state = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % (1 << 64)
    state = ((state ^ (state >> 27)) * 0x94D049BB133111EB) % (1 << 64)
    return state ^ (state >> 31)


def quantile(sorted_x, p: float) -> float:
    """Linear interpolation between order statistics at position (n-1)p."""
    pos = (len(sorted_x) - 1) * p
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_x) - 1)
    return float(sorted_x[lo]) + (pos - lo) * (float(sorted_x[hi])
                                               - float(sorted_x[lo]))


def midpoint_auc(draws, t_lo: float = 1.0, t_hi: float = 365.0,
                 cells: int = 20_000) -> np.ndarray:
    """Area under each draw's curve by an unsplit midpoint sum, one per row.

    ``draws`` is an (M, >=7) array. With rates below 0.3/day the smooth-part
    error is about h^2/24 times the total variation of the slope, and the
    kink at the crossover day adds one cell of O(h^2) error: both stay
    below 1e-8 relative at the default cell count.
    """
    draws = np.atleast_2d(np.asarray(draws, dtype=np.float64))
    h = (t_hi - t_lo) / cells
    t = t_lo + h * (np.arange(cells) + 0.5)
    out = np.empty(draws.shape[0])
    step = 16  # draws per block: keeps temporaries near 5 MB
    for s in range(0, draws.shape[0], step):
        f = curve_array(t, *draws[s:s + step, :7].T[:, :, None])
        out[s:s + step] = h * f.sum(axis=1)
    return out
