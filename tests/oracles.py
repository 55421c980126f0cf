"""Test oracles for the maps f_a and for outer classes.

The package computes f_a (:func:`traintrack.disintegrate.build_fa`); the
lemmas that check it live here.  f_a is a homotopy equivalence
(:func:`verify_homotopy_equivalence`, by folding), it fixes f's Nielsen
paths (:func:`verify_nielsen_preserved`), it is a CT with f's principal
vertices and Nielsen paths (:func:`check_fa_is_ct`), and its tuple can be
read back from its edge images (:func:`find_tuple_representing`).  Two maps
lie in one outer class when :func:`differ_by_inner` finds a conjugator.
f^k_# by iterating f_# (:func:`iterate`) is the reference that the
package's term DAG (``nielsen.TermIterates``), which writes f_a, must
match.  The rest are the small helpers these need, the sample pair that is
one outer class apart by an inner automorphism, and the all-at-once forms
that the package replaced with lazy ones: the set of every illegal turn
(:func:`illegal_turns`), the legal cuts of a path (:func:`legal_cuts`) and
the family records expanded pair by pair (:func:`family_records_by_pairs`).
The splitter, the disintegration and the invariance test of ``restrict``
are kept here in the forms that build a term and a subpath per offset,
try every end for a candidate, walk every QE family of the map at once
(:func:`qe_families`), walk every term of every image per prefix and read
every image edge (:func:`reference_complete_split`,
:func:`reference_qe_split`, :func:`reference_partition`,
:func:`reference_relations`, :func:`reference_invariance_fault`): the
package's shared terms, per-pair families, edge digests and dependency
closure must give what they give.  So is the
stratum classifier that builds a transition block for every component and
a subpath per orientation of a NEG edge (:func:`reference_classify_strata`),
which the single-edge rule of ``classify_strata`` must match.
"""

import itertools
import math
from collections import deque
from fractions import Fraction

from traintrack.ct import check_ct, connecting_paths, principal_vertices
from traintrack.disintegrate import (
    AdmissibilityRelation,
    AlmostInvariantPartition,
    build_fa,
    disintegrate,
)
from traintrack.errors import InconsistentFiltration, NotCompletelySplit, TrainTrackError
from traintrack.freegroup import pi1_basis, pi1_images, reduce_word, spanning_tree
from traintrack.intlin import is_permutation_matrix
from traintrack.maps import GraphMap, Stratum, filtration, is_illegal_turn, transition_matrix
from traintrack.nielsen import (
    TERM_CONN,
    TERM_EDGE,
    TERM_EXC,
    TERM_INP,
    TERM_QE,
    CompleteSplitting,
    QEFamily,
    Term,
    _is_legal_turn,
    _is_nielsen_term,
    _pair_lengths,
    axes,
    build_catalog,
    default_length_bound,
    is_nielsen_path,
)
from traintrack.paths import Path, UnionFind, base_name, cyclic_decompose, inverse, word_root
from samples import _map, _rose


# -- maps, matrices and samples ----------------------------------------------------


def turns(graph, v=None):
    """All unordered direction pairs at common vertices (degenerate included)."""
    out = []
    for w in graph.vertices if v is None else [v]:
        ds = graph.directions(w)
        for i in range(len(ds)):
            for j in range(i, len(ds)):
                out.append(frozenset((ds[i], ds[j])) if ds[i] != ds[j] else frozenset((ds[i],)))
    return out


def iterate(m, path, k):
    """k-fold application of f_#; k=0 is the identity.

    The orbit grows in place.  Invariant: the list ``edges`` is the
    current iterate Q, and when the last step is known to have extended
    the iterate P before it, ``edges[n:]`` is the tail t that step
    appended, Q = P.t.  Then f_#(Q) = [f_#(P).f_#(t)] = [Q.f_#(t)], so
    the next step appends f_#(t) by the seam rule.  That step cancels
    nothing exactly when Q is a prefix of f_#(Q), since f_#(t) is tight
    and so never puts a cancelled edge back; then f_#(t) is the new
    tail.  After a cancellation, or before the first relation is seen,
    a step is a plain f_# compared once against Q.  An orbit that grows
    at the start runs reversed, as f_#(reverse p) = reverse f_#(p).

    Cost: while the orbit extends, f_# is fed only the tails, which
    partition f^(k-1)_#(p) past p, and O(|f^k_#(p)|) edges are written
    in all (about three per output edge), not O(k |f^k_#(p)|).
    """
    if k < 0:
        raise ValueError("iterate needs k >= 0")
    g, vmap = m.graph, m.vertex_map
    inverse_of = g.inverse_of
    edges, n, flipped, v = list(path.edges), None, False, path.start
    for _ in range(k):
        q = len(edges)
        if n is None:
            nxt = list(m.apply(Path(g, edges, v)).edges)
            if q and nxt[:q] == edges:
                n = q
            elif q and nxt[-q:] == edges:
                nxt = [inverse_of[e] for e in reversed(nxt)]
                n, flipped = q, not flipped
            edges = nxt
        elif n == q:
            break  # f_#(Q) = Q: the orbit is fixed from here on
        else:
            tail = m.apply(Path(g, edges[n:])).edges
            n = q if not tail or g.seam_extend(edges, (tail,)) == q else None
        v = vmap[v]
    if not edges:
        return Path(g, (), v)
    return Path(g, map(inverse_of.__getitem__, reversed(edges)) if flipped else edges)


def illegal_turns(m):
    """All illegal turns, as a set of frozensets (size 1 = degenerate)."""
    out = set()
    for t in turns(m.graph):
        pair = tuple(t)
        if len(pair) == 1 or is_illegal_turn(m, pair[0], pair[1]):
            out.add(t)
    return out


def legal_cuts(m, path):
    """The offsets 0 < i < len(path) where a term may end: those where the
    path's turn (inverse(path[i-1]), path[i]) is legal."""
    illegal, inverse_of, edges = illegal_turns(m), m.graph.inverse_of, path.edges
    return {
        i
        for i in range(1, len(edges))
        if frozenset((inverse_of[edges[i - 1]], edges[i])) not in illegal
    }


def family_records_by_pairs(descriptors, lw, bound):
    """The (i, composite flag) records of a linear edge's family descriptors,
    one per pair of prefixes, in the order the pairing loop meets them."""
    return [
        ((i + j - 2) // lw, split)
        for p_n, p_step, q_n, q_step, split in descriptors
        for i, j in _pair_lengths(p_n, p_step, q_n, q_step, bound)
    ]


# -- the splitter and the disintegration, term by term --------------------------------


def qe_families(m):
    """Every quasi-exceptional family of m, walked pair by pair over each
    axis in :func:`nielsen.axes` order: the all-at-once form of the
    package's families, which it builds per pair where a splitting meets
    one."""
    g = m.graph
    out = []
    for ax in axes(m):
        for (ei, di), (ej, dj) in itertools.combinations(ax.members, 2):
            if g.edge_index(ei) > g.edge_index(ej):
                (ei, di), (ej, dj) = (ej, dj), (ei, di)
            out.append(QEFamily(ax, ei, di, ej, dj))
    return tuple(out)


def families_by_end(m):
    """({E: the QE families with end E}, {E: the exceptional ones}), each
    list in :func:`qe_families` order."""
    every, exceptional = {}, {}
    for fam in qe_families(m):
        for e in (fam.e_i, fam.e_j):
            every.setdefault(e, []).append(fam)
            if fam.is_exceptional():
                exceptional.setdefault(e, []).append(fam)
    return every, exceptional


def is_indivisible_by_brute_force(m, path):
    """Whether ``path`` is Nielsen and none of its proper prefixes is."""
    edges = path.edges
    return is_nielsen_path(m, path) and not any(
        is_nielsen_path(m, Path(m.graph, edges[:n])) for n in range(1, len(edges))
    )


def reference_candidates(m, path, i, filt, exceptional, catalog):
    """The candidate terms at offset i in :func:`nielsen._candidates`'
    order, found by trying every end: the exceptional families with end
    path[i] (``exceptional``, from :func:`families_by_end`) by their
    ``matches``, the generic iNps by lookup and, where path[i] is the E of
    a listed linear family, each E b^k Ebar, k >= 1, that is Nielsen and
    indivisible by brute force, whatever k is."""
    edges, e = path.edges, path.edges[i]
    lvl = filt.level(e)
    if filt[lvl].kind == "zero":
        j = i
        while j < len(path) and filt.level(edges[j]) == lvl:
            j += 1
        return [Term(TERM_CONN, path.subpath(i, j), height=lvl)]
    generic = {sigma.edges: h for sigma, h in catalog.inps_by_first.get(e, [])}
    b, height, _ = catalog.families.get(e, ((), None, None))
    bodies = (b, tuple(inverse(x) for x in reversed(b)))
    cands = []
    for j in range(len(path), i + 1, -1):
        sub = path.subpath(i, j)
        cands += [Term(TERM_EXC, sub, family=fam)
                  for fam in exceptional.get(e, ()) if fam.matches(sub) is not None]
        if sub.edges in generic:
            cands.append(Term(TERM_INP, sub, height=generic[sub.edges]))
        k, rest = divmod(j - i - 2, len(b) or 1)
        if (b and not rest and k and edges[j - 1] == inverse(e)
                and edges[i + 1 : j - 1] in (bodies[0] * k, bodies[1] * k)
                and is_indivisible_by_brute_force(m, sub)):
            cands.append(Term(TERM_INP, sub, height=height))
    return cands + [Term(TERM_EDGE, path.subpath(i, i + 1), height=lvl)]


def reference_complete_split(m, path, catalog=None):
    """:func:`nielsen.complete_split` with a fresh single-edge term and
    subpath built at every offset, legality asked per cut, and the
    candidates of :func:`reference_candidates` over every QE family of the
    map, walked at once."""
    if catalog is None:
        catalog = build_catalog(m)
    filt = filtration(m)
    if path.is_trivial():
        return CompleteSplitting(path, [])
    exceptional = families_by_end(m)[1]
    inps_by_first, families = catalog.inps_by_first, catalog.families
    edges, inverse_of, n = path.edges, m.graph.inverse_of, len(path)
    terms, todo, failed = [], [], set()
    i = furthest = 0
    while i < n:
        e = edges[i]
        if e in exceptional or e in inps_by_first or e in families or (
            filt[filt.level(e)].kind == "zero"
        ):
            cands = reference_candidates(m, path, i, filt, exceptional, catalog)
        else:
            cands = (Term(TERM_EDGE, path.subpath(i, i + 1), height=filt.level(e)),)
        todo.append(iter(cands))
        while todo:
            for term in todo[-1]:
                j = i + len(term.path)
                furthest = max(furthest, j)
                if j == n or (
                    j not in failed and _is_legal_turn(m, inverse_of[edges[j - 1]], edges[j])
                ):
                    break
            else:
                todo.pop()
                failed.add(i)
                if terms:
                    i -= len(terms.pop().path)
                continue
            terms.append(term)
            i = j
            break
        else:
            raise NotCompletelySplit(
                "path %r is not completely split" % path, position=furthest
            )
    return CompleteSplitting(path, terms)


def reference_qe_split(m, path, catalog=None):
    """:func:`nielsen.qe_split` over :func:`reference_complete_split`,
    trying every QE family with an end at each single term and summing
    the lengths of the earlier terms for each offset."""
    terms = reference_complete_split(m, path, catalog).terms
    by_end = families_by_end(m)[0]
    out = []
    i = 0
    while i < len(terms):
        t = terms[i]
        if t.kind == TERM_EXC:
            p = t.family.matches(t.path)
            out.append(Term(TERM_QE, t.path, family=t.family, power=p))
            i += 1
            continue
        merged = False
        if t.kind == TERM_EDGE and t.path.edges[0] in by_end:
            e = t.path.edges[0]
            j = i + 1
            while j < len(terms) and _is_nielsen_term(m, terms[j]):
                j += 1
            if j < len(terms) and terms[j].kind == TERM_EDGE:
                closer = terms[j].path.edges[0]
                for fam in by_end[e]:
                    if closer != inverse(fam.e_j if e == fam.e_i else fam.e_i):
                        continue
                    lo = sum(len(x.path) for x in terms[:i])
                    hi = lo + sum(len(x.path) for x in terms[i : j + 1])
                    cand = path.subpath(lo, hi)
                    p = fam.matches(cand)
                    if p is not None:
                        out.append(Term(TERM_QE, cand, family=fam, power=p))
                        i = j + 1
                        merged = True
                        break
        if not merged:
            out.append(t)
            i += 1
    return CompleteSplitting(path, out)


def reference_classify_strata(m, components):
    """:func:`maps.classify_strata` reading every component, a single edge
    included, off its transition block, and each NEG edge's normal form off
    subpaths of its image."""
    g = m.graph
    strata = []
    for comp in components:
        edges = tuple(sorted(comp, key=g.edge_index))
        block = transition_matrix(m, edges)
        if all(all(v == 0 for v in row) for row in block):
            if strata and strata[-1].kind == "zero":
                edges = tuple(sorted(strata.pop().edges + edges, key=g.edge_index))
            strata.append(Stratum(edges, "zero"))
        elif not is_permutation_matrix(block):
            strata.append(Stratum(edges, "EG"))
        elif all(m.edge_images[e].edges == (e,) for e in edges):
            strata.append(Stratum(edges, "fixed"))
        elif len(edges) > 1:
            raise InconsistentFiltration(
                "NEG stratum {%s} has more than one edge after maximal filtration"
                % " ".join(edges)
            )
        else:
            strata.append(_reference_neg_stratum(m, edges[0]))
    return strata


def _reference_neg_stratum(m, e):
    for oriented in (e, inverse(e)):
        im = m.image(oriented)
        if len(im) >= 2 and im.edges[0] == oriented:
            u = im.subpath(1, len(im))
            if u.is_closed():
                break
    else:
        return Stratum((e,), "NEG", linear=False)
    root_edges, d = word_root(u.edges)
    w = u.subpath(0, len(root_edges))
    if m.apply(w) != w:
        return Stratum((e,), "NEG", oriented, u, linear=False)
    return Stratum((e,), "NEG", oriented, u, True, w, d)


def pieces(m, filt, i):
    """The paths A_i of a stratum: its edges, or its connecting paths."""
    g = m.graph
    if filt[i].kind == "zero":
        return connecting_paths(m, i, filt)
    return [g.path([e]) for e in sorted(filt[i].edges, key=g.edge_index)]


def reference_partition(m, catalog, filt):
    """:func:`disintegrate.almost_invariant_subgraphs` walking every term of
    the QE-splitting of every piece's image."""
    nodes = [i for i, s in enumerate(filt) if s.kind != "fixed"]
    uf = UnionFind()
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
        for piece in pieces(m, filt, i):
            for t in catalog.image_qe_split(piece).terms:
                if t.kind not in (TERM_EDGE, TERM_CONN):
                    continue
                j = filt.level(t.path.edges[0])
                if filt[j].kind != "fixed":
                    uf.union(i, j)
    roots = {}
    for i in nodes:
        roots.setdefault(uf.find(i), []).append(i)
    return AlmostInvariantPartition(m, filt, [roots[r] for r in sorted(roots)])


def reference_relations(m, part, catalog):
    """:func:`disintegrate.admissibility_relations` walking every term of
    every edge image's reference QE-splitting, over the families of
    :func:`qe_families`."""
    rels, seen = [], set()
    for stratum in part.filtration:
        if stratum.kind in ("fixed", "zero"):
            continue
        for e in sorted(stratum.edges, key=m.graph.edge_index):
            r = part.class_of_edge(e)
            for t in reference_qe_split(m, m.image(e), catalog).terms:
                if t.kind != TERM_QE or (t.family.key(), r) in seen:
                    continue
                fam = t.family
                seen.add((fam.key(), r))
                rels.append(AdmissibilityRelation(
                    r, part.class_of_edge(fam.e_i), part.class_of_edge(fam.e_j),
                    fam.d_i, fam.d_j, fam,
                ))
    return rels


def reference_invariance_fault(m, edge_subset):
    """The message :func:`maps.restrict` raises on a set that is not
    invariant, read off every image edge; None for an invariant set."""
    keep = {base_name(e) for e in edge_subset}
    for e in m.graph.edge_names:
        if e in keep and any(base_name(x) not in keep for x in m.edge_images[e].edges):
            return "edge set is not invariant: image of %r leaves it" % e
    return None


def identity_map(graph):
    return GraphMap(graph, {e: graph.path([e]) for e in graph.edge_names})


def det(rows):
    """Exact determinant (Fraction arithmetic, returned as Fraction)."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        out *= m[col][col]
        inv = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return sign * out


def inner_twist_pair():
    """Two maps with the same outer class differing by an inner automorphism;
    linear edge detection needs both orientations."""
    f1 = _map(_rose(["E1", "E2", "E3"]), {"E1": "E1", "E2": "E1 E2", "E3": "E1 E1 E3 E1"}, "inner_twist_a")
    f2 = _map(_rose(["E1", "E2", "E3"]), {"E1": "E1", "E2": "E2 E1", "E3": "E1 E3 E1 E1"}, "inner_twist_b")
    return f1, f2


def family_member(fam, p):
    """The member e_i w^p inverse(e_j) of a quasi-exceptional family."""
    w = fam.axis.word
    return Path(w.graph, (fam.e_i,) + w.power(p).edges + (inverse(fam.e_j),))


def inps(cat):
    """The catalog's indivisible entries, family members written out."""
    return [x for x in cat.entries if x.indivisible]


# -- words and folding -------------------------------------------------------------


def word_inverse(word):
    return tuple(inverse(x) for x in reversed(word))


def word_concat(*words):
    """The reduced product of words that must be reduced: each cancels only
    against the end of the product so far, the seam rule of
    :meth:`MarkedGraph.seam_extend`."""
    out = []
    for w in words:
        i = 0
        while i < len(w) and out and out[-1] == inverse(w[i]):
            out.pop()
            i += 1
        out.extend(w[i:])
    return tuple(out)


def conjugate(c, word):
    """c . word . c^-1, reduced."""
    return word_concat(c, word, word_inverse(c))


class SubgroupGraph:
    """Basis-labeled based graph; folded, it immerses into the rose.

    Edges are (u, letter, v) triples over integer vertices, 0 the base.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self.edges = []
        self._next = 1

    def add_word(self, word):
        """Thread a loop spelling ``word`` through fresh vertices."""
        word = reduce_word(word)
        if not word:
            return
        v = 0
        for i, x in enumerate(word):
            w = 0 if i == len(word) - 1 else self._next
            if w != 0:
                self._next += 1
            if x.endswith("'"):
                self.edges.append((w, base_name(x), v))
            else:
                self.edges.append((v, x, w))
            v = w

    def fold(self, rng=None):
        """Identify targets of same-label same-direction edge pairs until
        none remain.  The result is independent of the processing order;
        ``rng`` (random.Random) shuffles it to let tests exercise that."""
        classes = UnionFind()
        find = classes.find
        changed = True
        while changed:
            changed = False
            pairs = {}
            edges = list(self.edges)
            if rng is not None:
                rng.shuffle(edges)
            for u, letter, v in edges:
                u, v = find(u), find(v)
                for key, other in (((u, letter, "out"), v), ((v, letter, "in"), u)):
                    seen = pairs.get(key)
                    if seen is None:
                        pairs[key] = other
                    elif classes.union(seen, other):
                        changed = True
            self.edges = sorted(
                {(find(u), letter, find(v)) for u, letter, v in self.edges}
            )

    def prune(self):
        """Remove valence-one vertices other than the base, repeatedly."""
        while True:
            degree = {}
            for u, _, v in self.edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            drop = {x for x, d in degree.items() if d == 1 and x != 0}
            if not drop:
                return
            self.edges = [
                (u, letter, v)
                for u, letter, v in self.edges
                if u not in drop and v not in drop
            ]

    def vertices(self):
        out = {0}
        for u, _, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def is_full_rose(self):
        """One vertex and every generator looping at it exactly once."""
        if self.vertices() != {0}:
            return False
        labels = sorted(letter for _, letter, _ in self.edges)
        return labels == sorted(self.generators)

    def canonical_form(self):
        """Edge list relabeled by breadth-first discovery from the base."""
        names = {0: 0}
        order = [0]
        out_by = {}
        for u, letter, v in self.edges:
            out_by.setdefault(u, []).append((letter, v, False))
            out_by.setdefault(v, []).append((letter, u, True))
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for letter, y, _ in sorted(out_by.get(x, [])):
                if y not in names:
                    names[y] = len(names)
                    order.append(y)
        return sorted(
            (names[u], letter, names[v]) for u, letter, v in self.edges
        )


def is_surjective(words, generators):
    """Do the words generate the whole free group on ``generators``?

    Folds the wedge of the loops; the subgroup is everything exactly when
    the folded, pruned graph is the full rose (an index-one subgroup).
    """
    sg = SubgroupGraph(generators)
    for w in words:
        sg.add_word(w)
    sg.fold()
    sg.prune()
    return sg.is_full_rose()


def map_is_pi1_surjective(m, tree=None):
    g = m.graph
    tree = tree if tree is not None else spanning_tree(g)
    return is_surjective(pi1_images(m, tree), pi1_basis(g, tree))


def verify_homotopy_equivalence(m):
    """True iff the induced endomorphism of the fundamental group is onto.

    A surjective endomorphism of a finite-rank free group is an automorphism
    (free groups are Hopfian), so the fold is the whole test.
    """
    return map_is_pi1_surjective(m)


# -- outer-class comparison --------------------------------------------------------


def _conjugating_power(z, x, u):
    """The k with [z^k.x.z^-k] = u, or None; x is not in <z>, so at most one
    k works (see :func:`differ_by_inner`) and it has
    2(|k| - 1)|z| < |u| + |x|.  Each conjugate is grown from the last by one
    z at each end, in place, so the walk writes O(|u| + |x|) letters and
    compares only the conjugates as long as u."""
    for sign, step in ((1, z), (-1, word_inverse(z))):
        w, k = deque(x), 0
        while 2 * (k - 1) * len(z) < len(u) + len(x):
            if len(w) == len(u) and tuple(w) == u:
                return sign * k
            for a in reversed(step):
                if w and w[0] == inverse(a):
                    w.popleft()
                else:
                    w.appendleft(a)
            for a in reversed(step):
                if w and w[-1] == a:
                    w.pop()
                else:
                    w.append(inverse(a))
            k += 1
    return None


def differ_by_inner(m1, m2):
    """A word c with (m1 on pi1) = c . (m2 on pi1) . c^-1, or None when there
    is none; the maps act on graphs sharing edge names.

    Take the first pair (u, v) of non-trivial images, u = p.ucore.p^-1 and
    v = q.vcore.q^-1 with the cores cyclically reduced, z the root of ucore
    and d the shortest prefix of ucore with vcore = d^-1.ucore.d (none: no
    conjugator).  The words conjugating v to u are c_k = p.z^k.d.q^-1, k in
    Z, and c_k conjugates an image V to U iff z^k.X.z^-k = U' for
    X = [d.q^-1.V.q.d^-1] and U' = [p^-1.U.p].  Two facts give c:

    * If z^k.X.z^-k = U' with X not in <z>, then 2(|k| - 1)|z| < |U'| + |X|,
      and no other k works (two would make a power of z commute with X).
      Proof for k >= 2 (k <= -2: use z^-1).  Reducing z^k.X.z^-k cancels c
      pairs and |U'| = 2k|z| + |X| - 2c, so the claim is c < |X| + |z|.  If
      a letter of X survives, every pair holds one of X: c <= |X|.  Else
      X = s^-1.t, s and t suffixes of z^k, and the rests of z^k and z^-k
      cancel c - |X| more pairs: the common suffix of two prefixes of z^k,
      of lengths k|z| - |s| and k|z| - |t|.  Were it >= |z| long, these
      lengths would agree mod |z| (z is not a proper power), so s = r.z^i,
      t = r.z^j for a suffix r of z, and X = z^(j - i) would lie in <z>.
    * If every X lies in <z>, every c_k works or none does, and as
      |k||z| - |p| - |d| - |q| <= |c_k| and |c_0| <= |p| + |d| + |q|, the
      shortest working c_k has |k||z| <= 2(|p| + |d| + |q|).

    So the first pair whose X is not in <z> decides: its one k
    (:func:`_conjugating_power`) gives the one candidate checked on every
    pair.  When there is none, the shortest c_k of the second case (least
    word on ties) is checked, and it is the answer if it works.
    """
    w1, w2 = pi1_images(m1), pi1_images(m2)
    if pi1_basis(m1.graph) != pi1_basis(m2.graph) or len(w1) != len(w2):
        return None

    def works(c):
        return all(u == conjugate(c, v) for u, v in zip(w1, w2))

    if works(()):
        return ()
    pair = next(((u, v) for u, v in zip(w1, w2) if u and v), None)
    if pair is None:
        return None
    p, ucore = cyclic_decompose(pair[0])
    q, vcore = cyclic_decompose(pair[1])
    z, _ = word_root(ucore)
    r = next((r for r in range(len(z)) if ucore[r:] + ucore[:r] == vcore), None)
    if r is None:
        return None
    d = ucore[:r]

    def candidate(k):
        return word_concat(p, z * k if k >= 0 else word_inverse(z) * -k, d, word_inverse(q))

    dq = word_concat(d, word_inverse(q))
    for u, v in zip(w1, w2):
        x = conjugate(dq, v)
        j = len(x) // len(z)
        if x not in (z * j, word_inverse(z) * j):
            k = _conjugating_power(z, x, conjugate(word_inverse(p), u))
            c = None if k is None else candidate(k)
            return c if c is not None and works(c) else None
    reach = 2 * (len(p) + len(d) + len(q)) // len(z)
    best = min((candidate(k) for k in range(-reach, reach + 1)), key=lambda c: (len(c), c))
    return best if works(best) else None


# -- f_a ---------------------------------------------------------------------------


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
    members = [Path(g, (e,) + b + (g.inverse_of[e],)) for e, (b, _, _) in cat.families.items()]
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
            sigma = family_member(fam, p)
            q_checked += 1
            if fa.apply(sigma) != iterate(m, sigma, a[k]):
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
    and the families as (E, b, composite flag)."""
    if dis is None:
        dis = disintegrate(m)
    fa = build_fa(m, a, dis)
    bound = default_length_bound(m)
    report = check_ct(fa, bound=bound)
    same_principal = principal_vertices(fa) == principal_vertices(m)
    listed = [
        {x.path.edges for x in cat.generic}
        | {(e, b, composite) for e, (b, _, composite) in cat.families.items()}
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
