"""Almost invariant subgraphs, the admissible lattice, and the maps f_a.

A completely split map decomposes into almost invariant subgraphs
X_1 ... X_M: the equivalence classes, over strata not fixed by f, of the
relation generated by "some A_j occurs as a term in the QE-splitting of
f(A_i)", where A ranges over single edges of irreducible strata and over
connecting paths of zero strata.  Quasi-exceptional terms couple the
classes linearly: a term of f(E_k), E_k in X_r, lying in the family
E_i w^* inverse(E_j) forces

    a_r (d_i - d_j) = a_s d_i - a_t d_j

where X_s, X_t contain E_i, E_j with exponents d_i, d_j.  The integer
tuples satisfying every such relation form a sublattice L of Z^M; the
nonnegative members are the admissible tuples.  Each admissible a yields
the homotopy equivalence f_a acting as f^{a_i} on X_i and fixing every
f-fixed edge, and edge-image-wise f_a f_b = f_b f_a = f_{a+b}.

The QE-splittings of the images f(A) are the catalog's, made on its own
map.  A restriction f|S of f to an invariant edge set S (a filtration
prefix) is disintegrated on f's own graph: its filtration is f's met with
S (:func:`maps.restrict`), its pieces are paths of f's graph, and it reads
f's catalog and splittings (:meth:`NielsenCatalog.image_qe_split`).  The
whole map is the case S = every edge.
"""

import itertools
import math

from .ct import check_ct, connecting_paths, principal_vertices
from .errors import AdmissibilityError, InconsistentFiltration, TrainTrackError
from .freegroup import map_is_pi1_surjective
from .intlin import kernel_basis
from .maps import GraphMap, filtration, restrict
from .paths import Path, UnionFind
from .nielsen import (
    TERM_CONN,
    TERM_EDGE,
    TERM_QE,
    NielsenEntry,
    axes,
    build_catalog,
    default_length_bound,
)


class AlmostInvariantPartition:
    """The partition X_1 ... X_M of the non-fixed strata.

    ``classes`` holds, per X_i, the sorted tuple of stratum indices it
    comprises; ``subgraphs`` the corresponding edge sets.
    """

    def __init__(self, m, filt, classes):
        self.map = m
        self.filtration = filt
        self.classes = tuple(tuple(sorted(c)) for c in classes)
        self.M = len(self.classes)
        self._by_stratum = {}
        for i, cls in enumerate(self.classes):
            for s in cls:
                self._by_stratum[s] = i
        self.subgraphs = tuple(
            frozenset(e for s in cls for e in filt[s].edges)
            for cls in self.classes
        )

    def class_of_stratum(self, s):
        """Index of the X_i containing stratum s, or None for fixed strata."""
        return self._by_stratum.get(s)

    def class_of_edge(self, edge):
        return self._by_stratum.get(self.filtration.level(edge))

    def __repr__(self):
        parts = ["X_%d=%s" % (i + 1, sorted(sub)) for i, sub in enumerate(self.subgraphs)]
        return "<partition %s>" % ", ".join(parts)


def _pieces(m, filt, i):
    """The paths A_i of a stratum: its edges, or its connecting paths."""
    g = m.graph
    if filt[i].kind == "zero":
        return connecting_paths(m, i, filt)
    return [g.path([e]) for e in sorted(filt[i].edges, key=g.edge_index)]


def almost_invariant_subgraphs(m, catalog=None, filt=None):
    """Union-find closure of "A_j is a term in the QE-splitting of f(A_i)",
    over the strata of ``filt`` (default: m's filtration)."""
    if catalog is None:
        catalog = build_catalog(m)
    if filt is None:
        filt = filtration(m)
    nodes = [i for i, s in enumerate(filt) if s.kind != "fixed"]
    uf = UnionFind()

    # A zero stratum shares its class with the first irreducible stratum
    # above it (every edge of the zero stratum sits inside a connecting
    # path crossed by an image from that stratum).
    for i in nodes:
        if filt[i].kind == "zero":
            j = i + 1
            while j < len(filt) and filt[j].kind == "zero":
                j += 1
            if j == len(filt):
                raise InconsistentFiltration(
                    "zero stratum {%s} is not below any irreducible stratum"
                    % " ".join(filt[i].edges)
                )
            uf.union(i, j)

    for i in nodes:
        for piece in _pieces(m, filt, i):
            for t in catalog.image_qe_split(piece).terms:
                if t.kind not in (TERM_EDGE, TERM_CONN):
                    continue
                j = filt.level(t.path.edges[0])
                if filt[j].kind != "fixed":
                    uf.union(i, j)

    roots = {}
    for i in nodes:
        roots.setdefault(uf.find(i), []).append(i)
    classes = [roots[r] for r in sorted(roots)]
    return AlmostInvariantPartition(m, filt, classes)


class AdmissibilityRelation:
    """One linear condition a_r(d_i - d_j) = a_s d_i - a_t d_j."""

    def __init__(self, r, s, t, d_i, d_j, family):
        self.r, self.s, self.t = r, s, t
        self.d_i, self.d_j = d_i, d_j
        self.family = family

    def row(self, M):
        """Coefficient row with this relation written as row . a = 0."""
        row = [0] * M
        row[self.r] += self.d_i - self.d_j
        row[self.s] -= self.d_i
        row[self.t] += self.d_j
        return row

    def __repr__(self):
        return "a_%d(%d - %d) = a_%d*%d - a_%d*%d" % (
            self.r + 1, self.d_i, self.d_j,
            self.s + 1, self.d_i, self.t + 1, self.d_j,
        )


def admissibility_relations(m, part=None, catalog=None):
    """One relation per (quasi-exceptional family, containing class) incidence."""
    if catalog is None:
        catalog = build_catalog(m)
    if part is None:
        part = almost_invariant_subgraphs(m, catalog)
    filt = part.filtration
    rels = []
    seen = set()
    for i, stratum in enumerate(filt):
        if stratum.kind in ("fixed", "zero"):
            continue
        for e in sorted(stratum.edges, key=m.graph.edge_index):
            r = part.class_of_edge(e)
            for t in catalog.image_qe_split(m.graph.path([e])).terms:
                if t.kind != TERM_QE:
                    continue
                fam = t.family
                key = (fam.key(), r)
                if key in seen:
                    continue
                seen.add(key)
                rels.append(
                    AdmissibilityRelation(
                        r,
                        part.class_of_edge(fam.e_i),
                        part.class_of_edge(fam.e_j),
                        fam.d_i,
                        fam.d_j,
                        fam,
                    )
                )
    return rels


class AdmissibleLattice:
    """Integer solution lattice L of the admissibility relations in Z^M."""

    def __init__(self, rows, M):
        self.matrix = [list(map(int, r)) for r in rows]
        self.M = M
        basis = kernel_basis(self.matrix, M)
        self.basis = sorted(_orient(v) for v in basis)
        self.rank = len(self.basis)

    @property
    def all_ones(self):
        return (1,) * self.M

    def contains(self, a):
        """Membership in L: a integer tuple annihilated by every relation."""
        if len(a) != self.M or any(not isinstance(x, int) for x in a):
            return False
        return all(sum(c * x for c, x in zip(row, a)) == 0 for row in self.matrix)

    def is_admissible(self, a):
        return self.contains(a) and all(x >= 0 for x in a)

    def __repr__(self):
        return "<lattice rank %d in Z^%d>" % (self.rank, self.M)


def _orient(vec):
    """Flip sign so the first nonzero coordinate is positive."""
    for x in vec:
        if x:
            return tuple(vec) if x > 0 else tuple(-y for y in vec)
    return tuple(vec)


def lattice(rels, M):
    return AdmissibleLattice([rel.row(M) for rel in rels], M)


class Disintegration:
    """Partition, relations and lattice of one map, computed together.

    With ``edges``, of f|S for the invariant edge set S they name, on m's
    graph and with m's catalog; without, of m itself.
    """

    def __init__(self, m, catalog=None, edges=None):
        self.map = m
        self.catalog = catalog if catalog is not None else build_catalog(m)
        filt = filtration(m) if edges is None else restrict(m, edges)
        self.partition = almost_invariant_subgraphs(m, self.catalog, filt)
        self.relations = admissibility_relations(m, self.partition, self.catalog)
        self.lattice = lattice(self.relations, self.partition.M)

    @property
    def M(self):
        return self.partition.M

    @property
    def rank(self):
        return self.lattice.rank

    def __repr__(self):
        return "<disintegration M=%d, relations=%d, rank=%d>" % (
            self.M, len(self.relations), self.rank,
        )


def disintegrate(m, catalog=None, edges=None):
    return Disintegration(m, catalog, edges)


def build_fa(m, a, dis=None):
    """The map acting as f^{a_i} on X_i and fixing every f-fixed edge."""
    if dis is None:
        dis = disintegrate(m)
    a = tuple(a)
    if len(a) != dis.M or any(not isinstance(x, int) for x in a):
        raise AdmissibilityError(
            "expected an integer %d-tuple, got %r" % (dis.M, (a,))
        )
    if any(x < 0 for x in a):
        raise AdmissibilityError("tuple has a negative coordinate: %r" % (a,))
    if not dis.lattice.contains(a):
        raise AdmissibilityError("tuple %r violates an admissibility relation" % (a,))
    g = m.graph
    images = {}
    for e in g.edge_names:
        i = dis.partition.class_of_edge(e)
        if i is None:
            images[e] = g.path([e])
        else:
            images[e] = m.iterate(g.path([e]), a[i])
    return GraphMap(g, images, name="f_a%r" % (a,))


def verify_homotopy_equivalence(m):
    """True iff the induced endomorphism of the fundamental group is onto."""
    return map_is_pi1_surjective(m)


def is_generic(m, a, dis=None, catalog=None):
    """All coordinates positive and no two linear-edge twists collide."""
    if dis is None:
        dis = disintegrate(m, catalog)
    if len(a) != dis.M or any(x <= 0 for x in a):
        return False
    for axis in axes(m):
        for (e_i, d_i), (e_j, d_j) in itertools.combinations(axis.members, 2):
            r = dis.partition.class_of_edge(e_i)
            s = dis.partition.class_of_edge(e_j)
            if a[r] * d_i == a[s] * d_j:
                return False
    return True


def verify_commute(m, a, b, dis=None):
    """Edge-image equality of f_a f_b, f_b f_a and f_{a+b}."""
    if dis is None:
        dis = disintegrate(m)
    fa = build_fa(m, a, dis)
    fb = build_fa(m, b, dis)
    fab = build_fa(m, tuple(x + y for x, y in zip(a, b)), dis)
    for e in m.graph.edge_names:
        target = fab.image(e)
        if fa.apply(fb.image(e)) != target or fb.apply(fa.image(e)) != target:
            return False
    return True


class PreservationReport:
    """Outcome of checking that f_a keeps f's Nielsen and QE structure."""

    def __init__(self, checked_nielsen, checked_qe, failures):
        self.checked_nielsen = checked_nielsen
        self.checked_qe = checked_qe
        self.failures = list(failures)

    @property
    def passed(self):
        return not self.failures

    def lines(self):
        out = [
            "Nielsen paths fixed by f_a: %d checked" % self.checked_nielsen,
            "quasi-exceptional paths mapped by the class power: %d checked"
            % self.checked_qe,
        ]
        out.extend("FAIL: %s" % msg for msg in self.failures)
        return out

    def __str__(self):
        return "\n".join(self.lines())


def _nielsen_representatives(cat):
    """The catalog's generic Nielsen paths and the shortest member of each
    linear family E b^i Ebar.  f_a(E) = E.u with u in <b>, so f_a fixes a
    member, i >= 1, iff (u.f_a(b).ubar)^i = b^i iff f_a(b) = b (roots are
    unique, as in :func:`nielsen._checked_family`): one member decides."""
    g = cat.map.graph
    members = [
        Path(g, (e,) + b * records[0][0] + (g.inverse_of[e],))
        for e, (b, records, _) in cat.families.items()
    ]
    return [x.path for x in cat.generic] + members


def verify_nielsen_preserved(m, a, dis=None, qe_powers=(-2, -1, 0, 1, 2)):
    """Check f_a fixes every catalog Nielsen path and maps each incident
    quasi-exceptional family by f^{a_k} for the class X_k it occurs in; a
    linear family is checked on one member (:func:`_nielsen_representatives`)."""
    if dis is None:
        dis = disintegrate(m)
    fa = build_fa(m, a, dis)
    failures = []
    n_checked = 0
    for sigma in _nielsen_representatives(dis.catalog):
        n_checked += 1
        if fa.apply(sigma) != sigma:
            failures.append("f_a moves the Nielsen path %r" % (sigma.edges,))

    q_checked = 0
    for rel in sorted(dis.relations, key=lambda r: (r.family.key(), r.r)):
        fam, k = rel.family, rel.r
        for p in qe_powers:
            sigma = fam.member_path(p)
            q_checked += 1
            if fa.apply(sigma) != m.iterate(sigma, a[k]):
                failures.append(
                    "family %s w^* %s', power %d: f_a disagrees with f^%d"
                    % (fam.e_i, fam.e_j, p, a[k])
                )
    return PreservationReport(n_checked, q_checked, failures)


class FaCTResult:
    """check_ct on f_a plus comparison of its structure with f's."""

    def __init__(self, report, same_principal, same_nielsen):
        self.report = report
        self.same_principal = same_principal
        self.same_nielsen = same_nielsen

    @property
    def passed(self):
        return self.report.passed and self.same_principal and self.same_nielsen

    def lines(self):
        out = list(self.report.lines())
        out.append(
            "principal vertices %s"
            % ("unchanged" if self.same_principal else "DIFFER")
        )
        out.append(
            "Nielsen paths within bound %s"
            % ("unchanged" if self.same_nielsen else "DIFFER")
        )
        return out

    def __str__(self):
        return "\n".join(self.lines())


def check_fa_is_ct(m, a, dis=None):
    """Run the full structure check on f_a and compare its principal
    vertices and within-bound Nielsen paths against f's: the generic paths,
    and the family members by their records (E, b, i)."""
    if dis is None:
        dis = disintegrate(m)
    fa = build_fa(m, a, dis)
    bound = default_length_bound(m)
    report = check_ct(fa, bound=bound)
    same_principal = principal_vertices(fa) == principal_vertices(m)
    listed = [
        {x.path.edges if isinstance(x, NielsenEntry) else x[:3] for x in cat.listing}
        for cat in (build_catalog(m, bound=bound), build_catalog(fa, bound=bound))
    ]
    return FaCTResult(report, same_principal, listed[0] == listed[1])


def _edge_image_candidates(m, edge, target_path):
    """The exponents k with f^k(edge) = target_path as an exponent set
    (start, period): the single exponent ``start`` when the period is 0,
    else start, start + period, ...; None when there is no exponent.

    The walk stops once an iterate revisits a path or is longer than the
    target; one of the two happens, since finitely many paths are no longer
    than the target.  The paths it visits are distinct, so the target is
    met at most once before the cycle, or once per period on it.  A None
    after the walk outgrew the target rests on one condition: the orbits of
    class edges never come back down in length.
    """
    path = m.graph.path([edge])
    seen = {}
    k = 0
    while path.edges not in seen and len(path) <= len(target_path):
        seen[path.edges] = k
        path = m.apply(path)
        k += 1
    hit, first = seen.get(target_path.edges), seen.get(path.edges)
    if hit is None:
        return None
    if first is None or hit < first:
        return hit, 0
    return hit, k - first


def _meet(x, y):
    """The intersection of two exponent sets (start, period), or None when
    it is empty.  A single exponent stays if the other set holds it; two
    progressions meet in one progression, whose period is the lcm of theirs
    and whose start solves the two congruences (CRT), if any k does."""
    if x is None or y is None:
        return None
    if x[1] and not y[1]:
        x, y = y, x
    (r, p), (t, q) = x, y
    if not p:
        return x if r == t or (q and r > t and (r - t) % q == 0) else None
    period = p * q // math.gcd(p, q)
    k = max(r, t)
    k += (r - k) % p
    return next(((j, period) for j in range(k, k + period, p) if (j - t) % q == 0), None)


def find_tuple_representing(m, target, dis=None):
    """The admissible tuple a with f_a edge-image-equal to target, or None.

    A class meets the exponent sets of its edges (:func:`_edge_image_candidates`)
    into none, one exponent, or a progression; the single exponents, if
    admissible, rebuild every class edge's target image.  Raises
    TrainTrackError when a class keeps a progression: its exponent is then
    not determined.
    """
    if dis is None:
        dis = disintegrate(m)
    g = m.graph
    if set(g.edge_names) != set(target.graph.edge_names):
        return None
    part = dis.partition
    if any(part.class_of_edge(e) is None and target.image(e).edges != (e,) for e in g.edge_names):
        return None
    a = []
    for i, sub in enumerate(part.subgraphs):
        ks = (0, 1)  # every exponent k >= 0
        for e in sorted(sub, key=g.edge_index):
            ks = _meet(ks, _edge_image_candidates(m, e, target.image(e)))
            if ks is None:
                return None
        if ks[1]:
            raise TrainTrackError(
                "find_tuple_representing: every exponent %d + %dj fits class X_%d {%s}"
                % (ks + (i + 1, " ".join(sorted(sub, key=g.edge_index))))
            )
        a.append(ks[0])
    a = tuple(a)
    return a if dis.lattice.contains(a) else None
