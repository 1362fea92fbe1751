import numpy as np
import pytest

from spotdeconv.tensors import BoundError, group_norm_image, require


def test_group_norm_345():
    v = np.zeros((1, 1, 2))
    v[0, 0] = [3.0, 4.0]
    assert group_norm_image(v)[0, 0] == pytest.approx(5.0)


def test_group_norm_zero_and_k1():
    assert np.all(group_norm_image(np.zeros((2, 2, 3))) == 0)
    v = np.array([[[-2.0], [3.0]]])
    np.testing.assert_allclose(group_norm_image(v), [[2.0, 3.0]])


def test_group_norm_matches_frobenius():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((6, 7, 4))
    assert np.sum(group_norm_image(v) ** 2) == pytest.approx(np.linalg.norm(v) ** 2)


def test_require_raises_bound_error():
    require(True, "lambda", ">= 0", -1.0)
    with pytest.raises(BoundError, match=r"^lambda must be >= 0, got -1.0$") as caught:
        require(False, "lambda", ">= 0", -1.0)
    assert isinstance(caught.value, ValueError)
    assert (caught.value.name, caught.value.rule, caught.value.value) == ("lambda", ">= 0", -1.0)
