"""Exact integer/rational linear algebra used by the lattice and spectral code.

Everything here works over Python ints and fractions.Fraction; floats appear
only in the numeric Perron-Frobenius estimate, which is always certified by
exact Sturm root counts of the characteristic polynomial.
"""

import math
from fractions import Fraction


def matrix_rank(rows):
    """Rank over the rationals: the number of columns less the kernel's."""
    ncols = len(rows[0]) if rows else 0
    return ncols - len(kernel_basis(rows, ncols))


def kernel_basis(rows, ncols):
    """Basis of the integer kernel {x : rows . x = 0} as a list of int vectors.

    Column-style Hermite reduction: apply unimodular column operations to the
    matrix until every column is either pivotal or zero; the corresponding
    columns of the accumulated transform are a basis of the kernel.  Because
    the transform is unimodular the basis is saturated (every integer point
    of the rational kernel is an integer combination of it) and each vector
    has content 1.  With no rows the kernel is everything, and the basis is
    the unit vectors in order, as the reduction would leave them.
    """
    if not rows:
        return [tuple(int(i == j) for i in range(ncols)) for j in range(ncols)]
    m = [list(map(int, row)) for row in rows]
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col(mat, j):
        return [mat[i][j] for i in range(len(mat))]

    def addmul(mat, dst, src, q):
        for i in range(len(mat)):
            mat[i][dst] += q * mat[i][src]

    def swap(mat, a, b):
        for i in range(len(mat)):
            mat[i][a], mat[i][b] = mat[i][b], mat[i][a]

    row = 0
    pivots = []
    for _ in range(len(m)):
        if row >= len(m):
            break
        # among columns right of the pivot block, clear row `row` by gcd steps
        active = [j for j in range(len(pivots), ncols)]
        while True:
            nz = [j for j in active if m[row][j] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(m[row][j]))
            j0 = nz[0]
            for j in nz[1:]:
                q = m[row][j] // m[row][j0]
                addmul(m, j, j0, -q)
                addmul(u, j, j0, -q)
        nz = [j for j in range(len(pivots), ncols) if m[row][j] != 0]
        if nz:
            j0 = nz[0]
            tgt = len(pivots)
            if j0 != tgt:
                swap(m, j0, tgt)
                swap(u, j0, tgt)
            pivots.append(tgt)
        row += 1
    basis = []
    for j in range(len(pivots), ncols):
        if all(m[i][j] == 0 for i in range(len(m))):
            basis.append(tuple(col(u, j)))
    return basis


def charpoly(block):
    """Monic characteristic polynomial coefficients, highest degree first.

    Faddeev-LeVerrier in integers: M_1 = I, c_k = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_k I.  Each c_k is an integer for an integer
    matrix, so the division is exact; the product A M_k serves both c_k
    and the next M.

    >>> charpoly([[2, 1], [1, 2]])
    [1, -4, 3]
    """
    n = len(block)
    a = [[int(x) for x in row] for row in block]
    coeffs = [1]
    am = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        mk = am
        for i in range(n):
            mk[i][i] += coeffs[-1]
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*mk)] for row in a]
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        assert r == 0, "characteristic polynomial of an integer matrix"
        coeffs.append(c)
    return coeffs


def is_permutation_matrix(block):
    """True when every row and every column contains a single 1, rest 0."""
    n = len(block)
    for row in block:
        if sum(row) != 1 or any(x not in (0, 1) for x in row):
            return False
    for j in range(n):
        if sum(block[i][j] for i in range(n)) != 1:
            return False
    return True


def _poly_divmod(a, b):
    """Quotient and remainder of Fraction polynomials (highest degree first).

    The remainder has its leading zeros stripped; the zero polynomial is
    the empty list.
    """
    a = list(a)
    quot = []
    while len(a) >= len(b):
        q = a[0] / b[0]
        quot.append(q)
        for i in range(len(b)):
            a[i] -= q * b[i]
        a.pop(0)
    while a and a[0] == 0:
        a.pop(0)
    return quot, a


def _derivative(p):
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])]


def _sturm_chain(coeffs):
    """Sturm sequence of the square-free part of a polynomial.

    For any x, the sign variations V(x) of the chain evaluated at x, zeros
    dropped, minus the variations of its leading coefficients count the
    distinct real roots of the polynomial greater than x.  Built over
    Fractions; each member is then scaled by the positive lcm of its
    denominators, which keeps its signs, so it is returned in integers.
    """
    p = [Fraction(c) for c in coeffs]
    a, b = p, _derivative(p)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    q = _poly_divmod(p, a)[0]
    chain = [q, _derivative(q)]
    while True:
        r = _poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-c for c in r])
    out = []
    for poly in chain:
        scale = math.lcm(*(c.denominator for c in poly))
        out.append([int(c * scale) for c in poly])
    return out


def _scaled_eval(coeffs, num, s):
    """p(num / 2^s) * 2^(s deg p) by integer Horner: the sign of p there."""
    acc, shift = 0, 0
    for c in coeffs:
        acc = acc * num + (c << shift)
        shift += s
    return acc


def _sign_variations(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def pf_eigenvalue(block, tol=Fraction(1, 10**12)):
    """Largest real eigenvalue of an irreducible nonnegative integer matrix.

    Returns (float value, (lo, hi) Fractions bracketing it within tol).  The
    bracket is certified by exact Sturm counts of the characteristic
    polynomial's roots; the float is only a convenient rounding of the
    bracket.

    The Perron root lies between the least and the greatest row sum
    (Collatz-Wielandt), and for an irreducible nonnegative matrix it is
    the largest real root of the characteristic polynomial and simple.
    Bisection on exact Sturm counts narrows (lo, hi] until it is at most
    ``tol`` wide and holds that root and no other.  The ends are dyadic,
    lo / 2^s and hi / 2^s for integers lo and hi, and every polynomial is
    evaluated there in integers (:func:`_scaled_eval`).

    The Perron root of [[3, 2], [2, 1]] is 2 + sqrt(5):

    >>> value, (lo, hi) = pf_eigenvalue([[3, 2], [2, 1]])
    >>> "%.9f" % value, (lo - 2) ** 2 < 5 < (hi - 2) ** 2, hi - lo <= Fraction(1, 10**12)
    ('4.236067977', True, True)
    """
    coeffs = charpoly(block)
    chain = _sturm_chain(coeffs)
    at_infinity = _sign_variations([c[0] for c in chain])

    def roots_above(num, s):
        return _sign_variations([_scaled_eval(c, num, s) for c in chain]) - at_infinity

    lo = min(sum(row) for row in block) - 1
    hi = max(sum(row) for row in block) + 1
    s = 0
    while (hi - lo) * tol.denominator > tol.numerator << s or roots_above(lo, s) > 1:
        lo, hi, s = lo << 1, hi << 1, s + 1
        mid = (lo + hi) >> 1
        if roots_above(mid, s) == 0:
            if _scaled_eval(coeffs, mid, s) == 0:
                root = Fraction(mid, 1 << s)
                return float(root), (root, root)
            hi = mid
        else:
            lo = mid
    return float(Fraction(lo + hi, 2 << s)), (Fraction(lo, 1 << s), Fraction(hi, 1 << s))
