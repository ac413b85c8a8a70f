"""The NumPy scrambled Sobol' sampler against scipy.stats, which only the tests import."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.stats import qmc

import sphererank as sr
from sphererank.geometry import gaussians_from_uniforms, sobol_uniforms


@pytest.mark.parametrize("seed", [0, 3, 20240809])
@pytest.mark.parametrize("dim", [2, 7, 12, 24, 35])
def test_sobol_uniforms_are_the_bits_of_qmc_sobol(dim, seed):
    for count in (1, 2, 7, 128, 200):
        m = max(1, math.ceil(math.log2(count)))
        ref = qmc.Sobol(dim, scramble=True, seed=seed).random(2**m)[:count]
        assert np.array_equal(sobol_uniforms(dim, count, seed), np.clip(ref, 1e-12, 1 - 1e-12))


def test_gaussians_are_the_bits_of_norm_ppf():
    u = np.concatenate([sobol_uniforms(6, 200, 3).ravel(), [1e-12, 1 - 1e-12, 0.5]])
    assert np.array_equal(gaussians_from_uniforms(u).view(np.int64), stats.norm.ppf(u).view(np.int64))


def test_a_dimension_beyond_the_direction_table_is_a_parameter_error():
    with pytest.raises(sr.ParameterError, match="21201"):
        sobol_uniforms(21202, 1, 0)


def test_sampling_and_the_cli_never_import_scipy_stats():
    code = (
        "import sys\n"
        "import sphererank as sr\n"
        "from sphererank import cli\n"
        "sr.GeodesicSampler(8, 1).states(sr.RoundSphere(3))\n"
        "assert cli.main(['geodesic', '--model', 'berger', '--eta', '0.8', '--direction', 'fiber',"
        " '--horizon', '1.0']) == 0\n"
        "assert 'scipy.stats' not in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
