import numpy as np
import pytest
from scipy import stats

from devcontrib.errors import ZeroVariance
from devcontrib.report import spearman


def test_spearman_equals_scipy_on_tied_data():
    rng = np.random.RandomState(5)
    checked = 0
    for _ in range(200):
        n = int(rng.randint(2, 15))
        xs = rng.randint(0, 4, size=n).tolist()  # few values, so many ties
        ys = (rng.randint(0, 3, size=n) + 0.5 * np.array(xs)).tolist()
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            with pytest.raises(ZeroVariance):
                spearman(xs, ys)
            continue
        assert spearman(xs, ys) == pytest.approx(stats.spearmanr(xs, ys).statistic,
                                                 rel=1e-12, abs=1e-12)
        checked += 1
    assert checked > 150
