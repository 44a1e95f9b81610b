"""Metric normalization and score fusion.

Raw metric populations (complexity, call-graph impact) live on wildly
different scales, so each metric is Box-Cox transformed toward normality
and affinely rescaled to mean ``POST_MEAN`` = 1 and standard deviation
``POST_STD`` = 1/3.  Under that shape fewer than 0.15% of values land below
zero; those are clamped to 0.  The power-transform parameter is fitted by
profile maximum likelihood on a fixed lambda grid, which keeps runs
reproducible across platforms (no optimizer state, no tolerance drift).
The grid never passes its upper end and holds an exact 0.0 (the log
transform) whenever it crosses zero.  It is scored in blocks of
``_GRID_ELEMENTS`` elements, one row per lambda, which pays numpy's
per-call overhead once per block instead of once per lambda and still
fits bit for bit as a loop over single lambdas (see ``fit_boxcox``).

Fusion uses three closed forms: the complexity factor
``CM = max(1, (LOC + CC + HV - PCom) / 2 + 1)`` (mean 2 at mean inputs),
the per-function score ``delta_ast * CM * (IP + 1) * IR``, and the commit
value as the sum of its function scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

POST_MEAN = 1.0
POST_STD = 1.0 / 3.0
# elements of one block of the lambda grid (128 KB of float64): a small
# sample shares a block among many lambdas, a large one takes a row each
_GRID_ELEMENTS = 1 << 14
# in steps: a grid point this close to 0 is 0.0, and a range this close
# to a whole number of steps ends on that step
_GRID_TOLERANCE = 1e-9


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


def _lambda_grid(lambda_min: float, lambda_max: float, step: float):
    """Yield the lambda grid ``lambda_min + i * step``, one point at a time.

    Two rules hold for any range: no point exceeds ``lambda_max`` (beyond
    the rounding of ``i * step``), and a point within ``_GRID_TOLERANCE``
    steps of zero is exactly 0.0, so the log transform is always tried
    when the grid crosses zero.  The default grid is -5, -4.99, ..., 5.0: 1,001
    points, with 0.0 at index 500.
    """
    steps = math.floor((lambda_max - lambda_min) / step + _GRID_TOLERANCE)
    for i in range(steps + 1):
        lam = lambda_min + i * step
        yield 0.0 if abs(lam) < _GRID_TOLERANCE * step else lam


def _grid_variances(ys, lams):
    """Yield ``(lam, _boxcox(ys, lam).var())`` for each lambda of the
    iterator ``lams``, scoring ``_GRID_ELEMENTS // n`` lambdas (at least
    one) per block."""
    n = len(ys)
    rows = max(1, _GRID_ELEMENTS // n)
    block = np.empty((rows, n))
    while chunk := list(islice(lams, rows)):
        t = block[:len(chunk)]
        for r, lam in enumerate(chunk):
            np.power(ys, lam, out=t[r])
        t -= 1.0
        t /= np.array(chunk)[:, None]
        for r, lam in enumerate(chunk):
            if lam == 0.0:
                np.log(ys, out=t[r])
        yield from zip(chunk, t.var(axis=1).tolist())


def fit_boxcox(samples, lambda_min: float = -5.0, lambda_max: float = 5.0,
               step: float = 0.01, min_samples: int = 30) -> BoxCoxParams:
    """Fit the transform for one metric.

    Constant (or empty) samples get a degenerate pass-through that maps
    every value to 1.0.  Small samples (fewer than ``min_samples``) skip
    the likelihood search and use the identity power (lambda = 1), which
    still rescales to the target mean/std and preserves ordering.

    Otherwise every point of ``_lambda_grid`` is scored by its profile
    log-likelihood; a lambda whose transform overflows (a variance that is
    not finite, or 0) is skipped, without a floating-point warning.  The
    search breaks exact likelihood ties toward lambda = 1.  The grid ends
    at ``lambda_max`` (within rounding) and holds an exact 0.0 where it
    crosses zero.

    The grid is scored in blocks of ``_GRID_ELEMENTS`` elements, made as
    they are needed.  Each lambda's row is one ``np.power(ys, lam)`` call,
    as a one-lambda evaluation makes (a broadcast lambda column is not:
    numpy takes other paths for a scalar exponent of -1, 0.5 or 2).  The
    block is then shifted, divided by its lambda column, its 0.0 rows are
    overwritten with ``np.log(ys)``, and ``var(axis=1)`` sums each row as
    ``var()`` sums the row alone.  Every variance is bit for bit the one
    a loop over single lambdas computes, so the fitted parameters are too.
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
        best_lam, best_key = None, None
        with np.errstate(all="ignore"):
            for lam_i, var in _grid_variances(ys, _lambda_grid(lambda_min, lambda_max, step)):
                if not math.isfinite(var) or var <= 0:
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
