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
whole map is the case S = every edge.  Of the image of an edge outside
zero strata, partition and relations read only its digest
(:meth:`NielsenCatalog.edge_digest`): the first edges of its edge and
connecting terms and the QE families it meets, which do not depend on S.
So each edge image is split and walked once per map, however many
prefixes read it.  The connecting paths of a zero stratum depend on S, and
their images are walked term by term.

Of the claims about f_a, only the commuting one is checked here
(:func:`verify_commute`, the ``verify-commute`` command): for admissible a
and b, f_a f_b(E) and f_b f_a(E) equal f_{a+b}(E) for every edge E.
f_{a+b} is built by :func:`build_fa`, its images written from the
catalog's term DAG (:class:`nielsen.TermIterates`), which reads f^k_#(E)
off the QE-splittings of the edge images.  The two composites are written
from the leaves of f_b(E) and f_a(E) in the DAG, each taken by the other
map in closed form; nothing is tightened but f_{a+b}'s images, which the
map checks.  The paper defines f_a only for a CT, and the DAG is the one
way f_a is written.  Where the DAG's lemma fails below some E (an image
does not split or cancels at an end, Df moves an end direction of a
Nielsen or QE term, or a QE axis is not cyclically reduced), or f_a or f_b
may move a Nielsen leaf or an axis, both raise :class:`FaRefused`, naming
E and the hypothesis that failed, or the vertex where two classes X_i, X_j
meet and f^(a_i), f^(a_j) disagree.  That f_a is a homotopy equivalence
and a CT, fixes f's Nielsen paths and gives back its tuple are the tests'
oracles (``tests/oracles.py``), not the package's.
"""

from functools import cached_property

from .ct import connecting_paths
from .errors import AdmissibilityError, FaRefused, InconsistentFiltration
from .intlin import kernel_basis
from .maps import GraphMap, filtration, orbit_period, restrict
from .paths import Path, UnionFind
from .nielsen import TERM_CONN, TERM_EDGE, build_catalog


class AlmostInvariantPartition:
    """The partition X_1 ... X_M of the non-fixed strata.

    ``classes`` holds, per X_i, the sorted tuple of stratum indices it
    comprises; ``subgraphs`` the corresponding edge sets, built on first
    read.
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

    @cached_property
    def subgraphs(self):
        filt = self.filtration
        return tuple(
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


def almost_invariant_subgraphs(m, catalog=None, filt=None):
    """Union-find closure of "A_j is a term in the QE-splitting of f(A_i)",
    over the strata of ``filt`` (default: m's filtration): the pieces A_i
    of a stratum are its edges, read through their digests, or its
    connecting paths, whose images are walked."""
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
        if filt[i].kind != "zero":
            for e in sorted(filt[i].edges, key=m.graph.edge_index):
                for x in catalog.edge_digest(e)[0]:
                    uf.union(i, filt.level(x))
            continue
        for piece in connecting_paths(m, i, filt):
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
    """One relation per (quasi-exceptional family, containing class)
    incidence, read off the edge digests."""
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
            for fam in catalog.edge_digest(e)[1]:
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

    def contains(self, a):
        """Membership in L: a integer tuple annihilated by every relation."""
        if len(a) != self.M or any(not isinstance(x, int) for x in a):
            return False
        return all(sum(c * x for c, x in zip(row, a)) == 0 for row in self.matrix)

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


def _check_tuple(dis, a):
    """Raise AdmissibilityError unless a is a nonnegative lattice point."""
    if len(a) != dis.M or any(not isinstance(x, int) for x in a):
        raise AdmissibilityError(
            "expected an integer %d-tuple, got %r" % (dis.M, a)
        )
    if any(x < 0 for x in a):
        raise AdmissibilityError("tuple has a negative coordinate: %r" % (a,))
    if not dis.lattice.contains(a):
        raise AdmissibilityError("tuple %r violates an admissibility relation" % (a,))


def build_fa(m, a, dis=None):
    """The map acting as f^{a_i} on X_i and fixing every f-fixed edge.

    An image f^{a_i}_#(E) is read off the catalog's term DAG
    (:class:`nielsen.TermIterates`); ``GraphMap`` checks it is tight.
    Raises :class:`FaRefused`, whatever a_i is, where the DAG's lemma fails
    below an edge E of X_i (:meth:`nielsen.TermIterates.refusal`), then
    where two classes pull a vertex apart (:func:`_check_vertices`)."""
    if dis is None:
        dis = disintegrate(m)
    a = tuple(a)
    _check_tuple(dis, a)
    g = m.graph
    dag = dis.catalog.iterates
    images = {}
    for e in g.edge_names:
        i = dis.partition.class_of_edge(e)
        why = i is not None and dag.refusal((e,))
        if why:
            raise FaRefused("f_a is defined only for a CT, and the term lemma fails at %s: %s"
                            % (e, why))
        images[e] = g.path([e]) if i is None else Path(g, dag.head((e,), a[i]))
    _check_vertices(m, dis, a)
    return GraphMap(g, images, name="f_a%r" % (a,))


def _check_vertices(m, dis, a):
    """Raise :class:`FaRefused` where the edges of two classes X_i and X_j
    meet at a vertex v with f^(a_i)(v) != f^(a_j)(v): no map acts as
    f^(a_i) on each X_i there.  A fixed edge, which takes power 0, never
    pulls a vertex apart, as f fixes its ends, and on a CT a vertex where
    two classes meet is principal, so fixed, and no tuple fails."""
    g, step, n = m.graph, m.vertex_map.__getitem__, len(m.vertex_map)

    def image(v, k):  # f^k(v); from its n-th point on, v's orbit is a cycle
        for _ in range(min(k, n)):
            v = step(v)
        for _ in range(k > n and (k - n) % orbit_period(step, v)):
            v = step(v)
        return v

    seen = {}
    for e in g.edge_names:
        i = dis.partition.class_of_edge(e)
        for v in () if i is None else (g.init(e), g.term(e)):
            w = image(v, a[i])
            j, u = seen.setdefault(v, (i, w))
            if u != w:
                raise FaRefused(
                    "f_a is defined only for a CT, and X_%d and X_%d meet at vertex %s, which "
                    "f^%d sends to %s and f^%d to %s" % (j + 1, i + 1, v, a[j], u, a[i], w))


def verify_commute(m, a, b, dis=None):
    """Edge-image equality of f_a f_b, f_b f_a and f_{a+b}.

    a and b are checked as :func:`build_fa` checks them, a first, and
    f_{a+b} is built, which refuses any edge the term DAG does not serve,
    and f_a and f_b are refused where they are not maps.  Then f_a f_b(E) is written from the leaves of f_b(E) = f^{b_i}_#(E), E
    in X_i, each taken by f_a in closed form
    (:meth:`nielsen.TermIterates.twisted`), and f_b f_a(E) the same way; no
    GraphMap is built for f_a or f_b and no f_# is taken.

    *Companion lemma* (proof at :class:`nielsen.TermIterates`): f_a never
    cancels at a legal cut, so, when f_a fixes every Nielsen leaf and
    axis, the concatenation of the leaf images is f_a#(f_b(E)), whatever
    the tuple a is.  Each leaf image is exact: f_a takes a Nielsen leaf to
    itself, a split piece of X_j to f^{a_j}_# of it, a linear leaf E
    w^(jd) to E w^((j + a_s)d) and a QE leaf E_p w^q E_q' to E_p w^(q +
    a_s d_p - a_t d_q) E_q', X_s and X_t the classes of E_p and E_q.  The
    lattice relations make the last E_p w^(q + a_i(d_p - d_q)) E_q', its
    image under f^{a_i}, so the comparison holds for admissible tuples and
    fails, as through f_#, where a relation is broken.  Where f_a or f_b
    may move a Nielsen leaf or an axis, twisted raises :class:`FaRefused`.
    """
    if dis is None:
        dis = disintegrate(m)
    a, b = tuple(a), tuple(b)
    _check_tuple(dis, a)
    _check_tuple(dis, b)
    fab = build_fa(m, tuple(x + y for x, y in zip(a, b)), dis)
    _check_vertices(m, dis, a)
    _check_vertices(m, dis, b)
    after = _commuted_images(m, dis, a, b)
    return all(ab == ba == fab.image_of[e] for e, (ab, ba) in after.items())


def _commuted_images(m, dis, a, b):
    """{E: (f_a f_b(E), f_b f_a(E))} as edge tuples read off the term DAG,
    which must serve every edge (see :func:`verify_commute`)."""
    g = m.graph
    dag = dis.catalog.iterates
    class_of = {d: dis.partition.class_of_edge(d) for d in g.directions()}

    def powers(t):
        return lambda d: 0 if class_of[d] is None else t[class_of[d]]

    pa, pb = powers(a), powers(b)  # a fixed edge takes power 0 and is its own image
    return {e: (dag.twisted((e,), pb(e), pa), dag.twisted((e,), pa(e), pb)) for e in g.edge_names}
