"""Numeric helpers: hashing, softmax, per-frame max-norm, RNG."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnfuse.errors import ContractViolation
from attnfuse.numerics import (SeededRng, derived_seed, fnv1a64, maxnorm_frame,
                               softmax_lastdim, softmax_numerators)


def test_fnv1a64_known_vectors():
    # Published FNV-1a 64-bit test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("a") == fnv1a64(b"a")


def test_derived_seed_tag_separation():
    assert derived_seed(0, "weights") != derived_seed(0, "video")
    assert derived_seed(0, "weights") != derived_seed(1, "weights")
    assert derived_seed(3, "x") == derived_seed(3, "x")


def test_softmax_reference_row():
    got = softmax_lastdim(np.array([1.0, 2.0, 3.0]))
    want = np.array([0.09003057317038046, 0.24472847105479767,
                     0.6652409557748219])
    assert np.max(np.abs(got - want)) <= 1e-12


def test_softmax_rows_sum_to_one_many():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((1000, 17)) * 10.0
    p = softmax_lastdim(x)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.all(p > 0.0)


def test_softmax_in_place_matches_fresh_result():
    x = np.random.default_rng(12).standard_normal((2, 3, 5, 9)) * 10.0
    want = softmax_lastdim(x)
    buf = x.copy()
    got = softmax_lastdim(buf, out=buf)
    assert got is buf
    assert np.array_equal(got, want)
    assert not np.array_equal(x, want)


def test_softmax_numerators_peak_at_one_and_divide_into_the_softmax():
    x = np.random.default_rng(13).standard_normal((4, 3, 7, 11)) * 10.0
    num = softmax_numerators(x)
    assert np.array_equal(num.max(axis=-1), np.ones((4, 3, 7)))
    assert num.min() >= 0.0
    assert np.array_equal(num / num.sum(axis=-1, keepdims=True), softmax_lastdim(x))
    with pytest.raises(ContractViolation, match="non-finite"):
        softmax_numerators(np.array([0.0, np.nan]))


def test_softmax_large_values_stable():
    p = softmax_lastdim(np.array([1000.0, 1000.0]))
    assert np.allclose(p, [0.5, 0.5], atol=1e-15)
    assert np.all(np.isfinite(softmax_lastdim(np.array([1e300, 0.0]))))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                max_size=12))
def test_softmax_row_property(row):
    p = softmax_lastdim(np.array(row))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "plus_inf"])
@pytest.mark.parametrize("col", [0, 2, 3])
def test_softmax_rejects_nan_and_plus_inf_anywhere(bad, col):
    x = np.random.default_rng(13).standard_normal((2, 3, 4))
    x[1, 1, col] = bad
    with pytest.raises(ContractViolation, match="non-finite"):
        softmax_lastdim(x)


def test_softmax_rejects_a_row_of_only_minus_inf():
    x = np.zeros((3, 4))
    x[2] = -np.inf
    with pytest.raises(ContractViolation, match="non-finite"):
        softmax_lastdim(x)


def test_softmax_gives_a_lone_minus_inf_weight_zero():
    p = softmax_lastdim(np.array([[0.5, -np.inf, 2.0], [1.0, 2.0, 3.0]]))
    assert p[0, 1] == 0.0
    assert np.array_equal(p[0, [0, 2]], softmax_lastdim(np.array([0.5, 2.0])))
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12


def test_softmax_empty_last_axis_rejected():
    with pytest.raises(ContractViolation):
        softmax_lastdim(np.zeros((3, 0)))


def test_maxnorm_single_frame():
    got = maxnorm_frame(np.array([0.2, 0.4]))
    assert np.allclose(got, [0.5, 1.0], atol=1e-15)


def test_maxnorm_frames_independent():
    x = np.array([[1.0, 2.0], [5.0, 10.0]])
    got = maxnorm_frame(x)
    assert np.allclose(got, [[0.5, 1.0], [0.5, 1.0]], atol=1e-15)
    assert np.max(maxnorm_frame(x)) == 1.0


def test_maxnorm_zero_frame_rejected():
    with pytest.raises(ContractViolation):
        maxnorm_frame(np.zeros(4))
    with pytest.raises(ContractViolation):
        maxnorm_frame(np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_gaussian_seeded_repeatable():
    a = SeededRng(7).standard_normal((64,))
    b = SeededRng(7).standard_normal((64,))
    assert np.array_equal(a, b)


def test_gaussian_statistics():
    x = SeededRng(7).standard_normal((100_000,))
    assert abs(float(x.mean())) < 0.02
    assert abs(float(x.std()) - 1.0) < 0.02


def test_gaussian_seeds_decorrelate():
    a = SeededRng(1).standard_normal((1000,))
    b = SeededRng(2).standard_normal((1000,))
    assert np.mean(a != b) >= 0.99
