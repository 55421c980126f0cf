"""Tests for the integer kernel and the rank, with numpy as the oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintrack.intlin import det, kernel_basis, matrix_rank


def numpy_rank(rows, ncols):
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float).reshape(len(rows), ncols)))


def assert_saturated_kernel(rows, ncols):
    basis = kernel_basis(rows, ncols)
    for v in basis:
        assert len(v) == ncols and all(isinstance(x, int) for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows), v
    assert len(basis) == ncols - numpy_rank(rows, ncols)
    if basis:
        # saturated: the gcd of the maximal minors of the basis is 1
        k = len(basis)
        minors = (
            int(det([[v[c] for c in cols] for v in basis]))
            for cols in itertools.combinations(range(ncols), k)
        )
        assert math.gcd(*minors) == 1, basis


def assert_rank(rows, ncols):
    assert matrix_rank(rows) == numpy_rank(rows, ncols)


CASES = {
    "zero row": [[0, 0, 0]],
    "zero rows among others": [[0, 0, 0, 0], [1, 2, 0, -1], [0, 0, 0, 0]],
    "repeated row": [[2, -4, 6], [1, -2, 3]],
    "sum of rows": [[1, 2, 3, 4], [0, 1, 1, 2], [1, 3, 4, 6]],
    "gcd two row": [[2, 4, 6]],
    "non-saturated span": [[2, 0, 0], [0, 3, 0]],
    "wide": [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1]],
    "tall": [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]],
    "tall full rank": [[1, 0, 2], [0, 1, 3], [4, 5, 6], [7, 8, 10]],
    "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "single column": [[0], [3], [-6]],
    "relation rows": [[1, -2, 1, 0], [0, 1, -3, 2], [1, -1, -2, 2]],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_and_rank_cases(name):
    rows = CASES[name]
    assert_saturated_kernel(rows, len(rows[0]))
    assert_rank(rows, len(rows[0]))


def test_no_rows():
    assert matrix_rank([]) == 0
    assert kernel_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@st.composite
def integer_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entries = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # rank-deficient: sometimes append an integer combination of the rows
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_kernel_basis_is_a_saturated_kernel(case):
    assert_saturated_kernel(*case)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_matrix_rank_is_numpys(case):
    assert_rank(*case)
