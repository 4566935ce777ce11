"""The closed forms behind selftest's geometric fit, against scipy.stats
(a test dependency only: the package itself imports numpy alone)."""

import numpy as np
import pytest
from scipy import stats

from gradcodec import selftest

# the fit's own quantile levels, and a few beyond them
LEVELS = np.concatenate([np.linspace(0.0, 1.0, 21)[1:-1], [1e-12, 1e-6, 0.123, 1 - 1e-6]])


@pytest.mark.parametrize("p", [1e-9, 1.7e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 0.999])
def test_geometric_quantile_and_cdf_match_scipy(p):
    # equal, not close: they set the fit's bin edges and bin probabilities
    quantiles = selftest.geometric_quantile(LEVELS, p)
    assert np.array_equal(quantiles, stats.geom.ppf(LEVELS, p))
    ks = np.unique(np.concatenate([np.arange(1.0, 64.0), quantiles, quantiles + 0.5]))
    assert np.array_equal(selftest.geometric_cdf(ks, p), stats.geom.cdf(ks, p))


@pytest.mark.parametrize("dof", range(1, 22))
def test_chi2_sf_matches_scipy(dof):
    for x in (0.0, 1e-9, 0.5, 1.0, 0.5 * dof, dof, 2.0 * dof, 3.7, 10.0, 40.0, 100.0, 400.0):
        assert selftest.chi2_sf(x, dof) == pytest.approx(stats.chi2.sf(x, dof), rel=1e-12)
