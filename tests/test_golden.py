"""Fixed-seed outputs must match `tests/golden/golden.npz`.

The file pins the numbers across rewrites of the numeric paths; see
`tests/golden/make_golden.py` for what it holds and how it is written.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).parent / "golden" / "make_golden.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("make_golden", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def golden_pair():
    mod = _load_script()
    with np.load(mod.GOLDEN) as f:
        expected = {k: f[k] for k in f.files}
    return expected, mod.compute()


def test_golden_keys(golden_pair):
    expected, actual = golden_pair
    assert sorted(expected) == sorted(actual)


def test_golden_samples_digest_exact(golden_pair):
    expected, actual = golden_pair
    assert str(actual["samples_sha256"]) == str(expected["samples_sha256"])


def test_golden_losses_rtol_1e9(golden_pair):
    expected, actual = golden_pair
    keys = [k for k in expected if k.startswith(("traj_losses/", "cls_losses/"))]
    assert len(keys) == 6
    for k in keys:
        np.testing.assert_allclose(actual[k], expected[k], rtol=1e-9, atol=0,
                                   err_msg=k)


@pytest.mark.parametrize("key", ["raw", "p_lat", "p_lon", "cv_points", "cv_rmse"])
def test_golden_predictions_atol_1e9(golden_pair, key):
    expected, actual = golden_pair
    assert actual[key].shape == expected[key].shape
    np.testing.assert_allclose(actual[key], expected[key], rtol=0, atol=1e-9)
