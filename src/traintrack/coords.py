"""Exact coordinates separating the commuting maps built from one train track.

A disintegrated map carries two kinds of numerical markers that survive
passage to outer automorphism classes: the twisting exponent of each linear
edge around its axis, and the expansion factor of each exponentially growing
stratum.  This module packages them as a coordinate system with one
``Comparison`` entry per linear edge (base value the exponent d_j) and one
``Expansion`` entry per EG stratum (base value log of the Perron-Frobenius
eigenvalue, kept alongside the exact characteristic polynomial).

For a lattice tuple ``a`` the map ``f_a`` acts on the stratum of a linear
edge E_j in class X_s by f_a(E_j) = E_j.w^(a_s d_j), and on an EG stratum in
X_s with transition block T by the block T^(a_s); so the coordinate vector
of ``f_a`` is obtained from the base values by multiplying each entry by the
a_s of the class containing its stratum.  Evaluation is therefore purely
structural and exact: integers for comparisons, an integer multiplier (plus
a float convenience value a_s * log lambda) for expansions.  The rank report
checks that a basis of the admissible lattice maps to linearly independent
integer coordinate vectors, which is what makes the coordinates a faithful
record of the lattice.
"""

import math

from . import intlin
from .disintegrate import AdmissibilityError, disintegrate
from .maps import filtration, transition_matrix
from .nielsen import axes


class Comparison:
    """Twist coordinate of one linear edge: f(edge) = edge . axis^value."""

    kind = "comparison"

    def __init__(self, axis, edge, value, stratum):
        self.axis = axis
        self.edge = edge
        self.value = value
        self.stratum = stratum

    def describe(self):
        return "twist %s over %s: d=%d" % (
            self.edge,
            " ".join(self.axis.edges),
            self.value,
        )

    def __repr__(self):
        return "<comparison %s ^ %d>" % (self.edge, self.value)


class Expansion:
    """Expansion coordinate of one EG stratum.

    ``polynomial`` is the monic characteristic polynomial of the transition
    block (integer coefficients, highest degree first); ``eigenvalue`` is
    the Perron-Frobenius root, bracketed exactly by ``bracket`` and rounded
    to a float; ``log_value`` is its natural log.
    """

    kind = "expansion"

    def __init__(self, stratum, edges, polynomial, eigenvalue, bracket):
        self.stratum = stratum
        self.edges = tuple(edges)
        self.polynomial = list(polynomial)
        self.eigenvalue = eigenvalue
        self.bracket = bracket
        self.log_value = math.log(eigenvalue)

    def describe(self):
        return "expansion on {%s}: lambda=%.9f, charpoly %s" % (
            " ".join(self.edges),
            self.eigenvalue,
            poly_string(self.polynomial),
        )

    def __repr__(self):
        return "<expansion stratum %d lambda=%.6f>" % (self.stratum, self.eigenvalue)


def poly_string(coeffs):
    """Render monic integer coefficients (highest first) as a polynomial in x."""
    n = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        deg = n - i
        if deg == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else "%d*" % abs(c)
            term = "%sx" % mag if deg == 1 else "%sx^%d" % (mag, deg)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


class CoordinateSystem:
    """Ordered coordinates of one map: comparisons and expansions by stratum."""

    def __init__(self, m, coordinates, lattice):
        self.map = m
        self.coordinates = tuple(coordinates)
        self.lattice = lattice
        self.K = len(self.coordinates)

    def lines(self):
        out = ["K=%d coordinates" % self.K]
        for c in self.coordinates:
            out.append("  [stratum %d] %s" % (c.stratum, c.describe()))
        return out

    def __repr__(self):
        return "<coordinate system K=%d on %r>" % (self.K, self.map)


class CoordinateVector:
    """The coordinates of f_a: one integer entry per coordinate.

    A comparison entry is the exact twist a_s * d_j; an expansion entry is
    the exact multiplier a_s (``lines`` also prints its numeric value
    a_s * log lambda).  Addition is entry-wise and exact.
    """

    def __init__(self, system, entries):
        self.system = system
        self.entries = tuple(int(e) for e in entries)

    def integer_vector(self):
        return self.entries

    def lines(self):
        out = []
        for coord, e in zip(self.system.coordinates, self.entries):
            if coord.kind == "comparison":
                out.append("  twist %s = %d" % (coord.edge, e))
            else:
                out.append(
                    "  expansion {%s}: multiplier %d, log factor %.9f"
                    % (" ".join(coord.edges), e, e * coord.log_value)
                )
        return out

    def __add__(self, other):
        if not isinstance(other, CoordinateVector) or other.system is not self.system:
            return NotImplemented
        return CoordinateVector(
            self.system, [x + y for x, y in zip(self.entries, other.entries)]
        )

    def __eq__(self, other):
        if not isinstance(other, CoordinateVector):
            return NotImplemented
        return self.system is other.system and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "<coordinate vector %r>" % (self.entries,)


def coordinate_system(m, dis=None):
    """Build the coordinate system of ``m``: K = #linear edges + #EG strata.

    The coordinates are ordered by filtration stratum.  Comparison values
    for linear edges sharing an axis are signed consistently against one
    orientation of the axis word, so that equal values mean equal twists.
    """
    if dis is None:
        dis = disintegrate(m)
    filt = filtration(m)
    coords = []
    for axis in axes(m):
        for edge, d in axis.members:
            coords.append(Comparison(axis.word, edge, d, filt.level(edge)))
    for i, s in enumerate(filt):
        if s.kind != "EG":
            continue
        block = transition_matrix(m, order=s.edges)
        poly = intlin.charpoly(block)
        value, bracket = intlin.pf_eigenvalue(block)
        coords.append(Expansion(i, s.edges, poly, value, bracket))
    coords.sort(key=lambda c: c.stratum)
    return CoordinateSystem(m, coords, dis.lattice)


def evaluate(cs, part, a):
    """Coordinate vector of f_a for a lattice tuple ``a``.

    Each coordinate lives on a stratum in some class X_s and scales by a_s.
    Tuples outside the admissible lattice are rejected; negative entries are
    allowed (the coordinates are defined on the whole lattice).
    """
    try:
        a = tuple(int(x) for x in a)
    except (TypeError, ValueError):
        raise AdmissibilityError("tuple entries must be integers: %r" % (a,))
    if len(a) != part.M:
        raise AdmissibilityError(
            "tuple has %d entries but there are %d almost invariant subgraphs"
            % (len(a), part.M)
        )
    if not cs.lattice.contains(a):
        raise AdmissibilityError("tuple %r is outside the admissible lattice" % (a,))
    entries = []
    for coord in cs.coordinates:
        s = part.class_of_stratum(coord.stratum)
        assert s is not None, "coordinate on a fixed stratum"
        mult = a[s]
        entries.append(mult * coord.value if coord.kind == "comparison" else mult)
    return CoordinateVector(cs, entries)


class RankReport:
    """Summary of the disintegration: class count, coordinates, lattice rank."""

    def __init__(self, M, K, rank, relations, observed, injective):
        self.M = M
        self.K = K
        self.rank = rank
        self.relations = relations
        self.observed = observed
        self.injective = injective

    def summary(self):
        return "M=%d, relations=%d, rank(D)=%d" % (self.M, self.relations, self.rank)

    def lines(self):
        return [
            self.summary(),
            "K=%d coordinates; lattice-basis coordinate matrix has rank %d "
            "(injective on the lattice: %s)"
            % (self.K, self.observed, "yes" if self.injective else "no"),
        ]

    def __repr__(self):
        return "<rank report %s>" % self.summary()


def rank_report(m, dis=None):
    """Rank of the disintegration lattice plus an injectivity check.

    The reported rank is the rank of the admissible lattice L.  Injectivity
    of a -> coordinates(f_a) is verified on a basis of L: the basis vectors'
    integer coordinate vectors must span a sublattice of the same rank.
    """
    if dis is None:
        dis = disintegrate(m)
    cs = coordinate_system(m, dis)
    rows = [list(evaluate(cs, dis.partition, b).integer_vector()) for b in dis.lattice.basis]
    if rows and cs.K:
        observed = intlin.matrix_rank(rows)
    else:
        observed = 0
    return RankReport(
        M=dis.M,
        K=cs.K,
        rank=dis.rank,
        relations=len(dis.relations),
        observed=observed,
        injective=observed == dis.rank,
    )
