"""The NumPy scrambled Sobol' sampler against scipy.stats, which only the tests import."""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats
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


def test_gaussians_are_the_bits_of_ndtri():
    rng = np.random.default_rng(7)
    tail = np.logspace(-12, math.log10(0.2), 30_000)
    edges = []
    for edge in (math.exp(-2), 1 - math.exp(-2), math.exp(-32)):
        edges += [np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)]
    u = np.concatenate([rng.uniform(1e-12, 1 - 1e-12, 50_000), tail, 1 - tail, edges])
    assert np.array_equal(gaussians_from_uniforms(u).view(np.int64), special.ndtri(u).view(np.int64))


def test_a_dimension_beyond_the_direction_table_is_a_parameter_error():
    with pytest.raises(sr.ParameterError, match="21201"):
        sobol_uniforms(21202, 1, 0)


# (argv, exit code)
COMMANDS = [
    (["geodesic", "--model", "berger", "--eta", "0.8", "--direction", "fiber", "--horizon", "1.0"], 0),
    (["conjugate", "--model", "berger", "--eta", "0.8", "--direction", "fiber"], 0),
    (["rank", "--property", "positive-spherical", "--model", "round", "--dim", "2", "--count", "2"], 0),
    # every row falls to weak_field_search on upper-normalized Berger(0.6), and fails
    (["rank", "--property", "weak-upper", "--model", "berger", "--eta", "0.6",
      "--normalization", "upper", "--count", "2"], 1),
]


def test_sampling_and_the_cli_never_import_scipy_stats():
    # nor scipy.special or scipy.linalg
    code = (
        "import sys\n"
        "import sphererank as sr\n"
        "from sphererank import cli\n"
        "sr.GeodesicSampler(8, 1).states(sr.RoundSphere(3))\n"
        f"for argv, code in {COMMANDS!r}:\n"
        "    assert cli.main(argv) == code, argv\n"
        "loaded = [m for m in ('scipy.stats', 'scipy.special', 'scipy.linalg') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
