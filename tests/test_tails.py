"""The F and chi-squared tails of the classical baselines: bit-identical to
scipy.stats on every argument the library passes, and loaded only when used."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sp_stats

import threshtest
from threshtest.statistics import _chi2_ppf, _chi2_sf, _f_ppf, _f_sf

# statistics: zeros of both signs, subnormals, the normal range up to 1e300,
# the largest float, inf and NaN; F is 0 when degenerate, and the LRT
# statistic is clipped at 0, so no caller passes a negative value
X = np.concatenate([
    [0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-20, 1e-8],
    np.linspace(0.01, 50.0, 200),
    np.exp(np.random.default_rng(12).uniform(-700.0, 690.0, 100)),
    np.geomspace(50.0, 1e300, 40),
    [np.finfo(float).max, np.inf, np.nan],
])
# degrees of freedom: R and P run from 1 to a few, N - P up to the thousands
DF = np.array(list(range(1, 31)) + [40, 50, 100, 200, 500, 1000])
# quantile levels q = 1 - alpha
Q = 1.0 - np.array([0.5, 0.2, 0.1, 0.05, 0.025, 0.01, 0.001])


def _assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    mismatch = got.view(np.uint64) != want.view(np.uint64)
    assert not mismatch.any(), f"{mismatch.sum()} of {got.size} values differ"


class TestTailsEqualScipyStats:
    def test_f_sf(self):
        x, d1, d2 = X[:, None, None], DF[None, :, None], DF[None, None, :]
        _assert_bits_equal(_f_sf(x, d1, d2), sp_stats.f.sf(x, d1, d2))

    def test_f_ppf(self):
        q, d1, d2 = Q[:, None, None], DF[None, :, None], DF[None, None, :]
        _assert_bits_equal(_f_ppf(q, d1, d2), sp_stats.f.ppf(q, d1, d2))

    def test_chi2_sf(self):
        x, df = X[:, None], DF[None, :]
        _assert_bits_equal(_chi2_sf(x, df), sp_stats.chi2.sf(x, df))

    def test_chi2_ppf(self):
        q, df = Q[:, None], DF[None, :]
        _assert_bits_equal(_chi2_ppf(q, df), sp_stats.chi2.ppf(q, df))

    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_scalar_calls_as_the_library_makes_them(self, alpha):
        # python int degrees of freedom, python or numpy float arguments
        for df1, df2 in [(1, 1), (2, 26), (5, 994)]:
            f = np.float64(2.5)
            assert float(_f_sf(f, df1, df2)) == float(sp_stats.f.sf(f, df1, df2))
            assert float(_f_ppf(1.0 - alpha, df1, df2)) == \
                float(sp_stats.f.ppf(1.0 - alpha, df1, df2))
            assert float(_chi2_sf(7.25, df1)) == float(sp_stats.chi2.sf(7.25, df1))
            assert float(_chi2_ppf(1.0 - alpha, df1)) == \
                float(sp_stats.chi2.ppf(1.0 - alpha, df1))


_COLD_START = """
import json, sys
import numpy as np
import threshtest, threshtest.cli
at_import = sorted(m for m in sys.modules if m.startswith("scipy"))
rng = np.random.default_rng(0)
x = rng.standard_normal((20, 3))
threshtest.baseline_lrt(x @ [1.0, 0.0, 0.0] + rng.standard_normal(20), x, "gaussian")
print(json.dumps([at_import, "scipy.special" in sys.modules, "scipy.stats" in sys.modules]))
"""


def test_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(threshtest.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _COLD_START], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    at_import, special_loaded, stats_loaded = json.loads(out)
    assert at_import == []
    assert special_loaded
    assert not stats_loaded
