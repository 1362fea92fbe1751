import numpy as np
import pytest

from spotdeconv.tensors import (
    as_image,
    as_volume,
    frobenius_norm,
    group_norm_image,
)


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
    assert np.sum(group_norm_image(v) ** 2) == pytest.approx(frobenius_norm(v) ** 2)


def test_frobenius_zero():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


def test_validators():
    with pytest.raises(ValueError):
        as_image(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        as_image(np.ones(3))
    with pytest.raises(ValueError):
        as_volume(np.full((2, 2, 2), np.inf))
