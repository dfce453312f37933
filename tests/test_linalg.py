import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uniesn.linalg import operator_norm


def closed_form_2x2_sigma_max(A):
    """Largest singular value of a 2x2 matrix from the exact formula."""
    S = float(np.sum(A * A))
    D = abs(float(np.linalg.det(A)))
    return float(np.sqrt((S + np.sqrt(max(S * S - 4 * D * D, 0.0))) / 2.0))


def test_zero_matrix():
    assert operator_norm(np.zeros((3, 4))) == 0.0


def test_single_column_is_euclidean_norm():
    # Rounded up by the SVD's slack, so above 5.0 but not by more than it.
    col = np.array([[3.0], [4.0]])
    assert 5.0 < operator_norm(col) <= 5.0 * (1 + 1e-13)


def test_one_by_one_is_exact():
    assert operator_norm(np.array([[-0.3]])) == 0.3


@st.composite
def small_matrices(draw):
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False)
    return np.array(draw(st.lists(entries, min_size=m * n, max_size=m * n))).reshape(m, n)


@given(a=small_matrices())
def test_is_an_upper_bound_on_the_exact_largest_singular_value(a):
    with mpmath.workdps(50):
        exact = max(mpmath.svd_r(mpmath.matrix(a.tolist()), compute_uv=False)) if a.any() else 0
        assert mpmath.mpf(operator_norm(a)) >= exact


def test_matches_2x2_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(200):
        A = rng.standard_normal((2, 2)) * rng.uniform(0.1, 10)
        got = operator_norm(A)
        want = closed_form_2x2_sigma_max(A)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_matches_dense_svd():
    rng = np.random.default_rng(3)
    for shape in [(5, 5), (8, 3), (3, 8), (20, 20)]:
        A = rng.standard_normal(shape)
        want = float(np.linalg.svd(A, compute_uv=False)[0])
        assert abs(operator_norm(A) - want) <= 1e-10 * want


def test_diagonal():
    assert abs(operator_norm(np.diag([0.5, 0.25])) - 0.5) < 1e-12


def test_deterministic():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    assert operator_norm(A) == operator_norm(A)


def test_rejects_non_matrix():
    with pytest.raises(ValueError):
        operator_norm(np.zeros(3))
