import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from devcontrib.scoring import (
    _GRID_ELEMENTS,
    BoxCoxParams,
    _boxcox,
    _grid_variances,
    _lambda_grid,
    combine_complexity,
    commit_cvalue,
    fit_boxcox,
    function_score,
    normalize,
)
from oracles import reference_fit_boxcox


def test_lognormal_sample_transforms_to_low_skew():
    rng = np.random.RandomState(1)
    sample = rng.lognormal(mean=0.0, sigma=1.0, size=4000)
    params = fit_boxcox(sample)
    normed = [normalize(v, params) for v in sample]
    assert abs(stats.skew(normed)) < 0.2


def test_constant_samples_map_to_one():
    params = fit_boxcox([5.0] * 100)
    assert params.degenerate
    assert normalize(5.0, params) == 1.0
    assert normalize(0.01, params) == 1.0


def test_heavy_tail_profile_hits_target_moments():
    # shaped like a big project's cyclomatic-complexity population:
    # median ~3, mean ~13, huge std, max in the thousands
    rng = np.random.RandomState(42)
    sample = np.clip(rng.lognormal(np.log(3.0), 1.7, 8000), 1.0, 6667.0)
    sample[0] = 6667.0
    assert np.median(sample) < 5 and sample.mean() > 9 and sample.std() > 50
    params = fit_boxcox(sample)
    normed = np.array([normalize(v, params) for v in sample])
    assert abs(normed.mean() - 1.0) <= 0.05
    assert abs(normed.std() - 1.0 / 3.0) <= 0.05
    assert normed.min() >= 0.0


def test_values_far_below_distribution_clamp_to_zero():
    rng = np.random.RandomState(3)
    params = fit_boxcox(rng.uniform(50.0, 100.0, 500))
    assert normalize(1e-6, params) == 0.0


def test_normalize_is_monotone():
    rng = np.random.RandomState(4)
    sample = rng.lognormal(1.0, 1.2, 2000)
    params = fit_boxcox(sample)
    values = np.sort(rng.uniform(0.0, sample.max() * 1.5, 500))
    normed = [normalize(v, params) for v in values]
    assert all(a <= b + 1e-12 for a, b in zip(normed, normed[1:]))


def test_small_sample_uses_identity_lambda_and_rescales():
    sample = [1.0, 2.0, 3.0, 4.0, 10.0]
    params = fit_boxcox(sample)
    assert params.lam == 1.0
    normed = np.array([normalize(v, params) for v in sample])
    assert abs(normed.mean() - 1.0) < 1e-9
    assert abs(normed.std() - 1.0 / 3.0) < 1e-9
    order = np.argsort(sample)
    assert list(order) == list(np.argsort(normed))


def test_grid_fit_is_deterministic():
    rng = np.random.RandomState(6)
    sample = rng.lognormal(0.5, 0.9, 300)
    p1 = fit_boxcox(sample)
    p2 = fit_boxcox(list(sample))
    assert p1 == p2


def test_fit_agrees_with_scipy_mle_loosely():
    rng = np.random.RandomState(8)
    sample = rng.lognormal(0.0, 0.8, 2000) + 0.5
    params = fit_boxcox(sample)
    scipy_lam = stats.boxcox_normmax(sample, method="mle")
    assert abs(params.lam - float(scipy_lam)) < 0.05


def test_params_roundtrip():
    params = fit_boxcox(np.random.RandomState(9).lognormal(0, 1, 200))
    again = BoxCoxParams.from_dict(params.to_dict())
    assert again == params


def test_default_grid_is_every_hundredth_from_minus_five_to_five():
    grid = list(_lambda_grid(-5.0, 5.0, 0.01))
    assert grid == [-5.0 + i * 0.01 for i in range(1001)]
    assert grid[500] == 0.0 and grid[-1] == 5.0


def test_grid_stops_at_lambda_max():
    assert list(_lambda_grid(0.0, 1.0, 0.6)) == [0.0, 0.6]
    assert max(_lambda_grid(-1.0, 2.5, 0.4)) <= 2.5
    # 0.3 + 1 ulp: the rounding of -0.3 + 6 * 0.1
    assert max(_lambda_grid(-0.3, 0.3, 0.1)) == pytest.approx(0.3, abs=1e-15)
    # a sample that prefers lambda above 2 takes the grid's last point
    sample = np.random.RandomState(0).uniform(0.0, 1.0, 200) ** 0.3 * 100.0
    assert fit_boxcox(sample).lam > 2.0
    assert fit_boxcox(sample, 0.0, 1.0, 0.6).lam == 0.6


def test_grid_that_crosses_zero_tries_the_log_transform():
    assert list(_lambda_grid(-0.3, 0.3, 0.1))[3] == 0.0
    assert list(_lambda_grid(-0.2, 0.2, 0.1))[2] == 0.0
    # without an exact 0.0, the middle point's (y^lam - 1) / lam is
    # rounding noise and this sample fits 0.1 on the wider grid
    sample = np.random.RandomState(1).lognormal(3.0, 1.0, 200)
    assert fit_boxcox(sample, -0.3, 0.3, 0.1).lam == 0.0
    assert fit_boxcox(sample, -0.2, 0.2, 0.1).lam == 0.0


def test_a_lambda_whose_transform_overflows_is_skipped_without_a_warning():
    sample = [1e80] * 3 + [float(v) for v in range(1, 40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = fit_boxcox(sample)
    assert params == reference_fit_boxcox(sample)
    assert not params.degenerate and -5.0 <= params.lam < 0.0


@st.composite
def _fit_cases(draw):
    """A sample kind and seed, a size around the grid's block sizes, and a
    grid: the default one for small samples, else a coarse one whose range
    is (almost surely) not a multiple of its step."""
    kind = draw(st.sampled_from(["lognormal", "duplicates", "signed"]))
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.one_of(st.integers(29, 400),
                       st.integers(_GRID_ELEMENTS // 2 - 2, _GRID_ELEMENTS // 2 + 2),
                       st.integers(_GRID_ELEMENTS - 2, _GRID_ELEMENTS + 40)))
    coarse = st.tuples(st.floats(-5.0, 1.0), st.floats(0.05, 6.0), st.floats(0.1, 1.0)) \
        .map(lambda t: (t[0], t[0] + t[1], t[2]))
    grid = draw(st.one_of(st.just((-5.0, 5.0, 0.01)), coarse) if n <= 400 else coarse)
    return kind, seed, n, grid


def _sample(kind, seed, n):
    rng = np.random.RandomState(seed)
    if kind == "lognormal":
        return rng.lognormal(rng.uniform(-1.0, 3.0), rng.uniform(0.2, 2.0), n)
    if kind == "duplicates":
        return rng.randint(1, 6, n).astype(float)
    return rng.randint(-20, 20, n).astype(float)  # zeros and negatives: shifted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_fit_cases())
@example(("lognormal", 1, 200, (-0.3, 0.3, 0.1)))
@example(("lognormal", 2, 29, (-5.0, 5.0, 0.01)))
@example(("signed", 3, _GRID_ELEMENTS // 2 + 1, (-1.0, 2.0, 0.3)))
@example(("duplicates", 4, _GRID_ELEMENTS + 1, (-2.0, 3.0, 0.7)))
def test_fit_equals_the_per_lambda_loop(case):
    kind, seed, n, (lambda_min, lambda_max, step) = case
    sample = _sample(kind, seed, n)
    assert fit_boxcox(sample, lambda_min, lambda_max, step).to_dict() == \
        reference_fit_boxcox(sample, lambda_min, lambda_max, step).to_dict()


@pytest.mark.parametrize("n", [30, 401, 5000, _GRID_ELEMENTS // 2 + 1])
def test_every_grid_variance_equals_the_one_lambda_variance(n):
    """Bit for bit, on every row: a broadcast lambda column would differ
    at -1, 0.5 and 2, where numpy's power of a scalar exponent differs."""
    ys = np.random.RandomState(n).lognormal(1.0, 1.0, n)
    grid = list(_lambda_grid(-5.0, 5.0, 0.01))
    with np.errstate(all="ignore"):
        got = list(_grid_variances(ys, iter(grid)))
        want = [(lam, float(_boxcox(ys, lam).var())) for lam in grid]
    assert got == want


def test_the_grid_is_scored_in_a_bounded_block():
    # the whole default grid of 5,000 samples would need 40 MB per array
    sample = np.random.RandomState(13).lognormal(0.0, 1.0, 5000)
    tracemalloc.start()
    try:
        fit_boxcox(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_cm_at_all_mean_inputs_is_two():
    assert combine_complexity(1.0, 1.0, 1.0, 1.0) == 2.0


def test_cm_clamped_at_one():
    assert combine_complexity(0.0, 0.0, 0.0, 0.0) == 1.0
    assert combine_complexity(0.0, 0.0, 0.0, 5.0) == 1.0


def test_cm_arithmetic():
    assert combine_complexity(2.0, 2.0, 2.0, 0.0) == 4.0


def test_cm_floor_on_random_tuples():
    rng = np.random.RandomState(10)
    tuples = rng.uniform(0.0, 3.0, size=(10000, 4))
    for l, c, h, p in tuples:
        assert combine_complexity(l, c, h, p) >= 1.0


def test_function_score_examples():
    assert function_score(0.0, 2.0, 1.0, 1.5) == 0.0
    assert function_score(1.0, 2.0, 1.0, 1.0) == 4.0
    assert function_score(4.0, 2.0, 0.0, 1.5) == 12.0


def test_score_zero_iff_delta_zero():
    rng = np.random.RandomState(11)
    for _ in range(500):
        delta = float(rng.choice([0.0, rng.uniform(0.01, 50.0)]))
        cm = 1.0 + float(rng.uniform(0, 3))
        ip = float(rng.uniform(0, 2))
        ir = 1.0 + float(rng.uniform(0, 2))
        score = function_score(delta, cm, ip, ir)
        assert (score == 0.0) == (delta == 0.0)


def test_cvalue_sum_and_permutation_invariance():
    assert commit_cvalue([]) == 0.0
    assert commit_cvalue([4.0, 12.0]) == 16.0
    rng = np.random.RandomState(12)
    scores = list(rng.uniform(0, 10, 50))
    assert commit_cvalue(scores) == pytest.approx(
        commit_cvalue(list(reversed(scores))), rel=1e-12)
