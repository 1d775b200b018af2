"""Shared test utilities: independent pure-Python oracles and data builders.

The oracle routines here deliberately avoid the package's vectorised code
paths (and scipy) so that comparisons in the tests are genuine dual-route
checks: ``math``-module scalar arithmetic on one side, the library on the
other.
"""

from __future__ import annotations

import math

import numpy as np

from lspfit import (
    Chain,
    CurveParams,
    IndexBounds,
    LikelihoodKind,
    NoiseParam,
    ObservationSeries,
    ParamVector,
    TuningSpec,
    default_priors,
    simulate_series,
)

# ---------------------------------------------------------------------------
# Pure-python scalar oracles
# ---------------------------------------------------------------------------


def py_expit(x: float) -> float:
    """Stable logistic 1/(1+e^-x) using only the math module."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def py_crossover(a3: float, a4: float, a6: float, a7: float) -> float:
    return (a3 * a4 + a6 * a7) / (a3 + a6)


def py_curve_value(t: float, a1, a2, a3, a4, a5, a6, a7) -> float:
    """Branch-by-branch scalar evaluation of the double-logistic curve."""
    d = py_crossover(a3, a4, a6, a7)
    if t <= d:
        rate = a3 * (t - a4)
    else:
        rate = a6 * (a7 - t)
    return a1 + (a2 - a5 * t) * py_expit(rate)


def py_normal_logpdf(y: float, mu: float, s2: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * s2) - (y - mu) ** 2 / (2.0 * s2)


def py_phi(x: float) -> float:
    """Standard normal CDF via math.erf."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def py_tn_logpdf(y, mu, s2, a, b) -> float:
    if y < a or y > b:
        return -math.inf
    sd = math.sqrt(s2)
    mass = py_phi((b - mu) / sd) - py_phi((a - mu) / sd)
    return py_normal_logpdf(y, mu, s2) - math.log(mass)


def py_beta_logpdf(y, mu, s2) -> float:
    if not (0.0 < mu < 1.0) or not (0.0 < y < 1.0):
        return -math.inf
    phi = 1.0 / s2
    p = mu * phi
    q = (1.0 - mu) * phi
    return (
        math.lgamma(phi)
        - math.lgamma(p)
        - math.lgamma(q)
        + (p - 1.0) * math.log(y)
        + (q - 1.0) * math.log1p(-y)
    )


def py_splitmix64(x: int) -> int:
    """Reference splitmix64 finalizer (public constants, pure ints)."""
    mask = (1 << 64) - 1
    x &= mask
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & mask
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & mask
    return x ^ (x >> 31)


def py_pixel_seed(base: int, row: int, col: int, cols: int) -> int:
    mask = (1 << 64) - 1
    return py_splitmix64((base + (row * cols + col + 1) * 0x9E3779B97F4A7C15) & mask)


# ---------------------------------------------------------------------------
# Parameter draws
# ---------------------------------------------------------------------------

GAMMA = (0.0, 1.0)


def draw_support_rows(rng: np.random.Generator, n: int,
                      bounds=GAMMA, a4_lo: float = 1.0) -> np.ndarray:
    """Uniform draws strictly inside the default prior support.

    Returns an (n, 8) array [alpha1..alpha7, sigma2]; sigma2 is drawn from a
    positive interval (support only requires sigma2 > 0).
    """
    g1, g2 = bounds
    out = np.empty((n, 8))
    out[:, 0] = rng.uniform(g1, g2, n)                      # alpha1
    out[:, 1] = rng.uniform(0.0, g2 - out[:, 0], n)         # alpha2
    out[:, 2] = rng.uniform(0.0, 1.0, n)                    # alpha3
    out[:, 6] = rng.uniform(a4_lo, 365.0, n)                # alpha7
    out[:, 3] = rng.uniform(a4_lo, out[:, 6], n)            # alpha4
    out[:, 4] = rng.uniform(-0.01, 0.01, n)                 # alpha5
    out[:, 5] = rng.uniform(0.0, 1.0, n)                    # alpha6
    out[:, 7] = rng.uniform(5e-4, 5e-2, n)                  # sigma2
    return out


def interior_truth(rng: np.random.Generator) -> CurveParams:
    """A curve with parameters well inside the default prior intervals."""
    return CurveParams(
        alpha1=rng.uniform(0.10, 0.30),
        alpha2=rng.uniform(0.40, 0.60),
        alpha3=rng.uniform(0.08, 0.20),
        alpha4=rng.uniform(95.0, 145.0),
        alpha5=rng.uniform(1e-4, 8e-4),
        alpha6=rng.uniform(0.08, 0.20),
        alpha7=rng.uniform(245.0, 305.0),
    )


# 25 observation days roughly every 15 days across the year.
DOYS_25 = tuple(float(d) for d in range(4, 365, 15))
assert len(DOYS_25) == 25

SIM_CURVE = CurveParams(0.2, 0.55, 0.12, 120.0, 4e-4, 0.10, 280.0)

# Proposal scales in the style of the package's documented single-series
# defaults (same values as lspfit.cli.DEFAULT_TUNING).
PHENO_TUNING = TuningSpec(0.001, 0.01, 0.01, 0.5, 1e-4, 0.01, 1.0, 0.1)

# A tighter stock proposal set for well-identified bounded series; with
# ~25 observations it keeps Metropolis acceptance in the 20-50% band.
FINE_TUNING = TuningSpec(0.001, 0.001, 0.005, 0.5, 1e-4, 0.005, 0.5, 0.03)

# A wider proposal set that takes larger steps in the level, amplitude, and
# timing parameters while keeping the trend step small (the trend is sharply
# identified by a year of data, so widening it only kills acceptance). The
# slow level/amplitude ridge decorrelates faster at the cost of a lower
# overall acceptance rate; use when interval calibration matters more than
# per-iteration efficiency.
WIDE_TUNING = TuningSpec(0.003, 0.04, 0.015, 1.5, 1e-4, 0.015, 2.0, 0.12)


def standard_starting(alpha4: float = 100.0, alpha7: float = 200.0,
                      sigma2: float = 1e-3) -> ParamVector:
    return ParamVector(
        CurveParams(0.2, 0.5, 0.25, alpha4, 1e-4, 0.25, alpha7),
        NoiseParam(sigma2),
    )


def make_series(kind: LikelihoodKind, curve: CurveParams, sigma2: float,
                doys, seed: int) -> ObservationSeries:
    rng = np.random.Generator(np.random.Philox(key=seed))
    return simulate_series(kind, curve, sigma2, doys, rng)


def chain_from_rows(rows: np.ndarray) -> Chain:
    return Chain.from_samples(np.asarray(rows, dtype=float))


def default_spec(ig_scale: float = 1e-3, bounds=(0.0, 1.0)):
    return default_priors(IndexBounds(*bounds), ig_scale=ig_scale)


# ---------------------------------------------------------------------------
# Quadrature helper for density-normalisation checks
# ---------------------------------------------------------------------------


def gl_integral(fn, lo: float, hi: float, panels: int = 64,
                order: int = 32) -> float:
    """Composite Gauss-Legendre integral of a vectorised fn over [lo, hi]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        total += half * float(np.sum(weights * fn(mid + half * nodes)))
    return total


def mp_auc(row, t_lo: float = 1.0, t_hi: float = 365.0,
           dps: int = 30) -> float:
    """AUC of one curve row by mpmath quadrature at ``dps`` digits.

    The range is split at the crossover day (the slope kink) and at each
    inflection day inside its branch, so every piece is smooth and has at
    most one sharp transition at an end.
    """
    import mpmath

    with mpmath.workdps(dps):
        a1, a2, a3, a4, a5, a6, a7 = (mpmath.mpf(float(v)) for v in row[:7])
        lo, hi = mpmath.mpf(t_lo), mpmath.mpf(t_hi)
        d = min(max((a3 * a4 + a6 * a7) / (a3 + a6), lo), hi)

        def spring(t):
            return a1 + (a2 - a5 * t) / (1 + mpmath.exp(-a3 * (t - a4)))

        def autumn(t):
            return a1 + (a2 - a5 * t) / (1 + mpmath.exp(-a6 * (a7 - t)))

        total = mpmath.mpf(0)
        for fn, a, b, knot in ((spring, lo, d, a4), (autumn, d, hi, a7)):
            if a < b:
                pts = [a, knot, b] if a < knot < b else [a, b]
                total += mpmath.quad(fn, pts)
        return float(total)


def riemann_auc(rows: np.ndarray, t_lo: float = 1.0, t_hi: float = 365.0,
                cells: int = 1_000_000) -> np.ndarray:
    """Midpoint-Riemann AUC oracle per sample row, vectorised over t."""
    from lspfit import curve_value

    width = (t_hi - t_lo) / cells
    mids = t_lo + (np.arange(cells) + 0.5) * width
    out = np.empty(len(rows))
    for i, row in enumerate(rows):
        p = CurveParams(*row[:7])
        out[i] = float(np.sum(curve_value(mids, p))) * width
    return out
