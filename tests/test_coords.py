import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack import intlin
from traintrack.coords import (
    CoordinateVector,
    coordinate_system,
    evaluate,
    poly_string,
    rank_report,
)
from traintrack.disintegrate import disintegrate, build_fa
from traintrack.errors import AdmissibilityError
from traintrack.maps import transition_matrix
import samples
from test_intlin import poly_eval

LAMBDA = 2 + math.sqrt(5)


def _of_kind(cs, kind):
    return [c for c in cs.coordinates if c.kind == kind]


def _base_vector(cs):
    """The coordinates of f itself: each twist d_j, each multiplier 1."""
    return tuple(c.value if c.kind == "comparison" else 1 for c in cs.coordinates)


def test_system_qe_rose():
    m = samples.qe_rose()
    cs = coordinate_system(m)
    assert cs.K == 2
    assert [c.kind for c in cs.coordinates] == ["comparison", "comparison"]
    e2, e3 = cs.coordinates
    assert (e2.edge, e2.value, e2.stratum) == ("E2", 2, 1)
    assert (e3.edge, e3.value, e3.stratum) == ("E3", 1, 2)
    assert e2.axis.edges == ("E1",) and e3.axis.edges == ("E1",)
    assert _base_vector(cs) == (2, 1)


def test_system_rose_cascade():
    # B -> BA is linear over the fixed loop A; C -> CB is not linear because
    # its suffix B is not a Nielsen path.  One coordinate in total.
    cs = coordinate_system(samples.rose_cascade())
    assert cs.K == 1
    (c,) = cs.coordinates
    assert c.kind == "comparison"
    assert (c.edge, c.value) == ("B", 1)
    assert c.axis.edges == ("A",)


def test_system_partial_fps():
    m = samples.partial_fps_map()
    cs = coordinate_system(m)
    assert cs.K == 3
    assert [c.kind for c in cs.coordinates] == ["comparison", "comparison", "expansion"]
    e2, e3, top = cs.coordinates
    assert (e2.edge, e2.value) == ("E2", 1)
    assert (e3.edge, e3.value) == ("E3", 2)
    assert top.edges == ("P", "Q")
    assert top.polynomial == [1, -4, -1]
    assert abs(top.eigenvalue - LAMBDA) < 1e-9
    lo, hi = top.bracket
    assert poly_eval(top.polynomial, lo) < 0 < poly_eval(top.polynomial, hi)
    assert float(hi - lo) < 1e-11
    assert abs(top.log_value - math.log(LAMBDA)) < 1e-9


def test_system_full_fps():
    cs = coordinate_system(samples.full_fps_map())
    assert cs.K == 5
    kinds = [c.kind for c in cs.coordinates]
    assert kinds == ["comparison"] * 4 + ["expansion"]
    values = [(c.edge, c.value) for c in _of_kind(cs, "comparison")]
    assert values == [("E2", 4), ("F1", 1), ("F2", 2), ("F3", 3)]
    (exp,) = _of_kind(cs, "expansion")
    assert exp.edges == ("U", "V")
    assert abs(exp.eigenvalue - LAMBDA) < 1e-9


def test_comparisons_signed_against_common_axis():
    # Linear edges over the same axis get exponents signed relative to one
    # orientation of the axis word, so their coordinate values compare.
    cs = coordinate_system(samples.exceptional_rose())
    b, c = cs.coordinates
    assert b.axis.edges == c.axis.edges == ("A",)
    assert (b.edge, b.value) == ("B", 2)
    assert (c.edge, c.value) == ("C", 5)


def test_evaluate_qe_rose():
    m = samples.qe_rose()
    dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    assert evaluate(cs, dis.partition, (3, 3)).integer_vector() == (6, 3)
    assert evaluate(cs, dis.partition, (1, 1)).integer_vector() == (2, 1)
    assert evaluate(cs, dis.partition, (0, 0)).integer_vector() == (0, 0)
    # negative lattice points are fine; non-lattice tuples are not
    assert evaluate(cs, dis.partition, (-2, -2)).integer_vector() == (-4, -2)
    with pytest.raises(AdmissibilityError):
        evaluate(cs, dis.partition, (1, 2))
    with pytest.raises(AdmissibilityError):
        evaluate(cs, dis.partition, (1,))
    with pytest.raises(AdmissibilityError):
        evaluate(cs, dis.partition, ("x", "y"))


def test_evaluate_mixed_classes():
    m = samples.partial_fps_map()
    dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    v = evaluate(cs, dis.partition, (2, 1, 5))
    assert v.integer_vector() == (2, 2, 5)
    *twists, expansion = v.lines()
    assert [t.rsplit(" = ", 1)[1] for t in twists] == ["2", "2"]
    assert abs(float(expansion.split("log factor ")[1]) - 5 * math.log(LAMBDA)) < 1e-9


def test_evaluate_identity_tuple_gives_base_values():
    for name in ("rose_cascade", "qe_rose", "exceptional_rose",
                 "partial_fps_map", "full_fps_map"):
        m = getattr(samples, name)()
        dis = disintegrate(m)
        cs = coordinate_system(m, dis)
        ones = (1,) * dis.M
        assert evaluate(cs, dis.partition, ones).integer_vector() == _base_vector(cs)


def test_vector_addition_and_equality():
    m = samples.exceptional_rose()
    dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    b1, b2 = dis.lattice.basis
    v1 = evaluate(cs, dis.partition, b1)
    v2 = evaluate(cs, dis.partition, b2)
    total = tuple(x + y for x, y in zip(b1, b2))
    assert v1 + v2 == evaluate(cs, dis.partition, total)
    assert v1 != v2
    assert isinstance(v1 + v2, CoordinateVector)


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_linearity_on_lattice(c1, c2, d1, d2):
    m = samples.exceptional_rose()
    dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    b1, b2 = dis.lattice.basis
    a = tuple(c1 * x + c2 * y for x, y in zip(b1, b2))
    b = tuple(d1 * x + d2 * y for x, y in zip(b1, b2))
    ab = tuple(x + y for x, y in zip(a, b))
    va = evaluate(cs, dis.partition, a)
    vb = evaluate(cs, dis.partition, b)
    assert (va + vb).integer_vector() == evaluate(cs, dis.partition, ab).integer_vector()


def test_expansion_matches_numpy():
    for m in (samples.partial_fps_map(), samples.full_fps_map()):
        cs = coordinate_system(m)
        (exp,) = _of_kind(cs, "expansion")
        block = transition_matrix(m, order=exp.edges)
        oracle = max(abs(x) for x in np.linalg.eigvals(np.array(block, dtype=float)))
        assert abs(exp.eigenvalue - oracle) < 1e-9
        # the exact polynomial's roots agree with numpy's too
        assert np.allclose(
            sorted(np.roots(exp.polynomial).real),
            sorted(np.linalg.eigvals(np.array(block, dtype=float)).real),
        )


def test_pf_eigenvalue_returns_largest_root_not_a_lower_one():
    # Characteristic polynomial x^4 - 3x^3 - 3x^2 + 9x + 2: the root 2 lies
    # below the Perron root 2.866..., so stepping down from the row-sum
    # bound by whole units stops at the wrong root.
    block = [[0, 1, 0, 2], [0, 2, 1, 0], [0, 1, 0, 1], [2, 0, 0, 1]]
    val, (lo, hi) = intlin.pf_eigenvalue(block)
    oracle = max(abs(np.linalg.eigvals(np.array(block, dtype=float))))
    assert abs(val - oracle) < 1e-9
    assert abs(val - 2.866198) < 1e-6
    assert lo <= oracle <= hi


@st.composite
def irreducible_blocks(draw):
    n = draw(st.integers(1, 5))
    rows = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        # a Hamiltonian cycle of positive entries makes the matrix irreducible
        rows[i][(i + 1) % n] = max(rows[i][(i + 1) % n], 1)
    return rows


@settings(max_examples=60, deadline=None)
@given(irreducible_blocks())
def test_pf_eigenvalue_matches_numpy_spectral_radius(block):
    val, (lo, hi) = intlin.pf_eigenvalue(block)
    oracle = max(abs(np.linalg.eigvals(np.array(block, dtype=float))))
    assert abs(val - oracle) <= 1e-7 * max(1.0, oracle)
    assert lo <= hi and hi - lo <= Fraction(1, 10**12)


def test_expansion_scales_as_power_of_lambda():
    # On the EG stratum the tuple entry a_s turns the transition block into
    # its a_s-th power, so the expansion factor of f_a is lambda ** a_s.
    m = samples.partial_fps_map()
    dis = disintegrate(m)
    for a3 in (1, 2, 3):
        fa = build_fa(m, (1, 1, a3), dis)
        block = transition_matrix(fa, order=("P", "Q"))
        val, _ = intlin.pf_eigenvalue(block)
        assert abs(val - LAMBDA ** a3) / LAMBDA ** a3 < 1e-6


def test_rank_report_values():
    expected = {
        "rose_cascade": (1, 1, 1, 0),
        "qe_rose": (2, 2, 1, 1),
        "exceptional_rose": (3, 2, 2, 1),
        "partial_fps_map": (3, 3, 3, 0),
        "full_fps_map": (5, 5, 5, 0),
    }
    for name, (M, K, rank, rels) in expected.items():
        rep = rank_report(getattr(samples, name)())
        assert (rep.M, rep.K, rep.rank, rep.relations) == (M, K, rank, rels), name
        assert rep.injective, name
        assert rep.observed == rank, name


def test_rank_report_summary_format():
    rep = rank_report(samples.qe_rose())
    assert rep.summary() == "M=2, relations=1, rank(D)=1"
    assert rep.lines()[0] == "M=2, relations=1, rank(D)=1"
    assert "injective on the lattice: yes" in rep.lines()[1]


def test_poly_string():
    assert poly_string([1, -4, -1]) == "x^2 - 4*x - 1"
    assert poly_string([1, 0, -2]) == "x^2 - 2"
    assert poly_string([1]) == "1"
    assert poly_string([1, 1]) == "x + 1"
    assert poly_string([2, 0]) == "2*x"


def test_describe_lines():
    m = samples.partial_fps_map()
    dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    lines = cs.lines()
    assert lines[0] == "K=3 coordinates"
    assert any("twist E3 over E1: d=2" in ln for ln in lines)
    assert any("expansion on {P Q}" in ln for ln in lines)
    v = evaluate(cs, dis.partition, (2, 1, 5))
    vlines = v.lines()
    assert any("twist E2 = 2" in ln for ln in vlines)
    assert any("multiplier 5" in ln for ln in vlines)
