"""Metric normalization and score fusion.

Raw metric populations (complexity, call-graph impact) live on wildly
different scales, so each metric is Box-Cox transformed toward normality
and affinely rescaled to mean ``POST_MEAN`` = 1 and standard deviation
``POST_STD`` = 1/3.  Under that shape fewer than 0.15% of values land below
zero; those are clamped to 0.  The power-transform parameter is fitted by
profile maximum likelihood on a fixed lambda grid, which keeps runs
reproducible across platforms (no optimizer state, no tolerance drift).

Fusion uses three closed forms: the complexity factor
``CM = max(1, (LOC + CC + HV - PCom) / 2 + 1)`` (mean 2 at mean inputs),
the per-function score ``delta_ast * CM * (IP + 1) * IR``, and the commit
value as the sum of its function scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POST_MEAN = 1.0
POST_STD = 1.0 / 3.0


@dataclass
class BoxCoxParams:
    """Fitted transform for one metric population."""

    lam: float = 1.0
    shift: float = 0.0
    mean_t: float = 0.0
    std_t: float = 1.0
    degenerate: bool = False
    n: int = 0

    def to_dict(self) -> dict:
        """The fields, with ``lam`` serialized as ``lambda``."""
        d = dict(vars(self))
        d["lambda"] = d.pop("lam")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BoxCoxParams":
        d = dict(d)
        d["lam"] = d.pop("lambda")
        return cls(**d)


def _boxcox(y, lam):
    y = np.asarray(y, dtype=float)
    if lam == 0.0:
        return np.log(y)
    return (np.power(y, lam) - 1.0) / lam


def fit_boxcox(samples, lambda_min: float = -5.0, lambda_max: float = 5.0,
               step: float = 0.01, min_samples: int = 30) -> BoxCoxParams:
    """Fit the transform for one metric.

    Constant (or empty) samples get a degenerate pass-through that maps
    every value to 1.0.  Small samples (fewer than ``min_samples``) skip
    the likelihood search and use the identity power (lambda = 1), which
    still rescales to the target mean/std and preserves ordering.  The
    grid search breaks exact likelihood ties toward lambda = 1.
    """
    xs = np.asarray(list(samples), dtype=float)
    n = len(xs)
    if n == 0 or np.ptp(xs) == 0.0:
        return BoxCoxParams(degenerate=True, n=n)
    shift = 1.0 - xs.min() if xs.min() <= 0 else 0.0
    ys = xs + shift

    if n < min_samples:
        lam = 1.0
    else:
        log_sum = np.log(ys).sum()
        steps = int(round((lambda_max - lambda_min) / step))
        best_lam, best_key = None, None
        for i in range(steps + 1):
            lam_i = lambda_min + i * step
            zs = _boxcox(ys, lam_i)
            var = zs.var()
            if not np.isfinite(var) or var <= 0:
                continue
            llf = -0.5 * n * math.log(var) + (lam_i - 1.0) * log_sum
            key = (llf, -abs(lam_i - 1.0))
            if best_key is None or key > best_key:
                best_key, best_lam = key, lam_i
        lam = best_lam if best_lam is not None else 1.0

    ts = _boxcox(ys, lam)
    mean_t = float(ts.mean())
    std_t = float(ts.std())
    if std_t == 0.0 or not np.isfinite(std_t):
        return BoxCoxParams(degenerate=True, n=n)
    return BoxCoxParams(lam=lam, shift=shift, mean_t=mean_t, std_t=std_t, n=n)


def normalize(value: float, params: BoxCoxParams) -> float:
    """Transform one value; output is clamped at 0 and centered near 1."""
    if params.degenerate:
        return 1.0
    y = value + params.shift
    if y <= 0.0:
        y = 1e-12  # below the fitted domain; lands at (or clamps to) 0
    t = float(_boxcox(y, params.lam))
    scaled = (t - params.mean_t) / params.std_t * POST_STD + POST_MEAN
    return max(0.0, scaled)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def combine_complexity(loc_n: float, cc_n: float, hv_n: float, pcom_n: float) -> float:
    """Fused complexity factor; comments lower it, floor at 1."""
    return max(1.0, 0.5 * (loc_n + cc_n + hv_n - pcom_n) + 1.0)


def function_score(delta_ast: float, cm: float, ip_n: float, ir: float) -> float:
    """Per-function contribution: edit size x complexity x (impact+1) x range."""
    return delta_ast * cm * (ip_n + 1.0) * ir


def commit_cvalue(function_scores) -> float:
    """A commit's contribution value: the sum of its function scores."""
    return float(sum(function_scores))
