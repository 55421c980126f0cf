"""Tests for the integer kernel and the rank, with numpy as the oracle, and
for the spectral code, with its former Fraction arithmetic as the oracle."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintrack.intlin import (
    _derivative,
    _poly_divmod,
    charpoly,
    kernel_basis,
    matrix_rank,
    pf_eigenvalue,
)
from traintrack.maps import filtration, transition_matrix

import samples
from oracles import det


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


# --- charpoly and pf_eigenvalue against Fraction arithmetic ------------------


def charpoly_fraction(block):
    """Faddeev-LeVerrier over Fractions, M_k and A M_k both multiplied out."""
    n = len(block)
    a = [[Fraction(x) for x in row] for row in block]
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        prev = mk
        mk = [[sum(a[i][t] * prev[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        for i in range(n):
            mk[i][i] += coeffs[-1]
        am = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def poly_eval(coeffs, x):
    """Horner over Fractions."""
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def sturm_chain_fraction(coeffs):
    p = [Fraction(c) for c in coeffs]
    a, b = p, _derivative(p)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    q = _poly_divmod(p, a)[0]
    chain = [q, _derivative(q)]
    while True:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            return chain
        chain.append([-c for c in r])


def pf_eigenvalue_fraction(block, tol=Fraction(1, 10**12)):
    """Bisection on Sturm counts with Fraction ends and Fraction evaluation."""
    coeffs = charpoly_fraction(block)
    chain = sturm_chain_fraction(coeffs)

    def variations(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_infinity = variations([c[0] for c in chain])

    def roots_above(x):
        return variations([poly_eval(c, x) for c in chain]) - at_infinity

    lo = Fraction(min(sum(row) for row in block) - 1)
    hi = Fraction(max(sum(row) for row in block) + 1)
    while hi - lo > tol or roots_above(lo) > 1:
        mid = (lo + hi) / 2
        if roots_above(mid) == 0:
            if poly_eval(coeffs, mid) == 0:
                return float(mid), (mid, mid)
            hi = mid
        else:
            lo = mid
    return float((lo + hi) / 2), (lo, hi)


def assert_spectrum_matches_fraction(block):
    assert charpoly(block) == charpoly_fraction(block), block
    value, (lo, hi) = pf_eigenvalue(block)
    assert (value, (lo, hi)) == pf_eigenvalue_fraction(block), block
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)


def random_irreducible_block(rng):
    n = rng.randint(1, 5)
    rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        # a cycle of positive entries through every index: irreducible
        rows[i][(i + 1) % n] = max(rows[i][(i + 1) % n], 1)
    return rows


def test_spectrum_matches_fraction_on_random_irreducible_blocks():
    rng = random.Random(16)
    for _ in range(500):
        assert_spectrum_matches_fraction(random_irreducible_block(rng))


def _sample_eg_blocks():
    blocks = {}
    for name, build in sorted(samples.SAMPLES.items()):
        m = build()
        for s in filtration(m):
            if s.kind == "EG":
                blocks["%s {%s}" % (name, " ".join(s.edges))] = transition_matrix(m, order=s.edges)
    return blocks


SAMPLE_EG_BLOCKS = _sample_eg_blocks()


def test_the_samples_have_four_eg_blocks():
    assert len(SAMPLE_EG_BLOCKS) == 4, sorted(SAMPLE_EG_BLOCKS)


@pytest.mark.parametrize("name", sorted(SAMPLE_EG_BLOCKS))
def test_spectrum_matches_fraction_on_sample_eg_blocks(name):
    assert_spectrum_matches_fraction(SAMPLE_EG_BLOCKS[name])


RATIONAL_PERRON_ROOTS = {
    "1x1": ([[3]], 3),
    "permutation": ([[0, 1], [1, 0]], 1),
    "row sums 3": ([[2, 1], [1, 2]], 3),
    "all ones": ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], 3),
    "row sums 4": ([[0, 1, 3], [2, 0, 2], [1, 3, 0]], 4),
    "a second root": ([[2, 2], [1, 3]], 4),
    "zero diagonal 5x5": ([[0, 2, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 2, 0],
                           [0, 0, 0, 0, 2], [2, 0, 0, 0, 0]], 2),
}


@pytest.mark.parametrize("name", sorted(RATIONAL_PERRON_ROOTS))
def test_rational_perron_root_is_returned_exactly(name):
    block, root = RATIONAL_PERRON_ROOTS[name]
    assert_spectrum_matches_fraction(block)
    # equal row sums r: the first midpoint of [r - 1, r + 1] is the root,
    # and an exact root ends the bisection with a point bracket
    assert pf_eigenvalue(block) == (float(root), (root, root))
