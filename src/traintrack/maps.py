"""Self maps of marked graphs: images, transition matrices, filtrations.

A GraphMap sends vertices to vertices and each edge to a tightened
nontrivial edge path, with f(inverse edge) the reversed image.  The induced
map on paths substitutes edge images and cancels where they meet; this is
the # operation on paths and the only way images of paths are ever
computed here.
"""

from collections import namedtuple

from .paths import Path, base_name, word_root
from .errors import EndpointMismatch, MalformedPath, InconsistentFiltration
from . import intlin


class GraphMap:
    """A topological representative: f(edge) = tight nontrivial path.

    ``edge_images`` maps positive edge names to Paths (or oriented-edge
    sequences).  Vertex images are derived from the edge images and checked
    for consistency.
    ``image_of`` maps both orientations of every edge to the edge tuple of
    its image; f_# reads it instead of reversing images per call.
    """

    def __init__(self, graph, edge_images, name=None):
        self.graph = graph
        self.name = name
        imgs = {}
        for e in graph.edge_names:
            if e not in edge_images:
                raise MalformedPath("no image given for edge %r" % e)
            im = edge_images[e]
            raw = not isinstance(im, Path)
            if raw:
                im = graph.path(im)
            if im.graph is not graph:
                raise EndpointMismatch("image of %r lives in the wrong graph" % e)
            if im.is_trivial():
                raise MalformedPath("image of %r is trivial" % e)
            # graph.path checked a raw sequence; a Path gets one tightening
            # pass, which shortens it exactly when it is not tight
            if not raw and len(graph.tighten(im.edges)) != len(im):
                raise MalformedPath("image of %r is not tight" % e)
            imgs[e] = im
        self.edge_images = imgs
        vmap = {}
        for e in graph.edge_names:
            for v, w in ((graph.init(e), imgs[e].start), (graph.term(e), imgs[e].end)):
                if vmap.setdefault(v, w) != w:
                    raise EndpointMismatch(
                        "edge images disagree about the image of vertex %r" % v
                    )
        for v in graph.vertices:
            if v not in vmap:
                raise MalformedPath("image of isolated vertex %r is undetermined" % v)
        self.vertex_map = vmap
        self.image_of = {}
        for e, im in imgs.items():
            self.image_of[e] = im.edges
            self.image_of[graph.inverse_of[e]] = im.reverse().edges
        self._cache = {}

    # -- basic action ------------------------------------------------------

    def image(self, edge):
        """Image path of an oriented edge."""
        if edge in self.edge_images:
            return self.edge_images[edge]
        return Path(self.graph, self.image_of[edge])

    def apply(self, path):
        """f_#: substitute edge images and tighten.  Trusts its input: the
        path and the edge images (checked when the map is built) are tight,
        so edges cancel only where one image meets the next, and the seam
        rule joins them unchecked."""
        if path.graph is not self.graph:
            raise EndpointMismatch("path lives in the wrong graph")
        g = self.graph
        out = []
        g.seam_extend(out, map(self.image_of.__getitem__, path.edges))
        return Path(g, out) if out else g.trivial_path(self.vertex_map[path.start])

    def edges_equal(self, other):
        """Same edge images (the meaning of equality-up-to-homotopy-rel-vertices)."""
        return (
            self.graph is other.graph
            and self.edge_images == other.edge_images
            and self.vertex_map == other.vertex_map
        )

    def __repr__(self):
        label = self.name or "map"
        return "<GraphMap %s on %r>" % (label, self.graph)


def compose(m1, m2):
    """m1 after m2: edge images are m1_#(m2(E))."""
    if m1.graph is not m2.graph:
        raise EndpointMismatch("cannot compose maps on different graphs")
    imgs = {e: m1.apply(m2.edge_images[e]) for e in m1.graph.edge_names}
    return GraphMap(m1.graph, imgs)


def transition_matrix(m, order=None):
    """Integer matrix T[i][j] = crossings of edge i (either direction) by f(edge j).

    ``order`` fixes the row/column edge order; default is construction order.
    """
    order = list(order or m.graph.edge_names)
    index = {e: i for i, e in enumerate(order)}
    base_of = m.graph.base_of
    n = len(order)
    t = [[0] * n for _ in range(n)]
    for j, e in enumerate(order):
        for x in m.image_of[e]:
            nm = base_of[x]
            if nm in index:
                t[index[nm]][j] += 1
    return t


# -- filtration ---------------------------------------------------------------


class Stratum(namedtuple(
    "Stratum", "edges kind neg_edge linear axis exponent", defaults=(None,) * 4
)):
    """One filtration stratum: an edge set plus its combinatorial kind.

    kind is one of "fixed", "zero", "NEG", "EG".  Strata are classified by
    :func:`classify_strata` while the filtration is built and are read-only
    from then on.

    For non-fixed NEG single edges, ``neg_edge`` is the oriented edge E with
    f(E) = E.u, u a closed path, when such an orientation exists; some NEG
    edges have no such normal form and keep None.
    ``linear`` is True for a NEG stratum whose u is a Nielsen path w^d, w
    the word root of u (``axis`` = w, ``exponent`` = d), False for every
    other NEG stratum and None for strata of the other kinds.
    """

    __slots__ = ()

    def __contains__(self, edge):
        return base_name(edge) in self.edges

    def __repr__(self):
        return "<stratum %s {%s}>" % (self.kind, " ".join(self.edges))


class Filtration:
    """Invariant filtration: ordered strata, lowest first.

    :func:`filtration` gives m's maximal one.  Any valid stratum order of m
    (every stratum after the strata its images cross) lists a filtration
    of m too, ``Filtration(m.graph, [filt[i] for i in order])``; ``level``
    and ``prefix_edges`` then give positions and prefixes in that order.
    """

    def __init__(self, graph, strata):
        self.graph = graph
        self.strata = list(strata)
        self._level = {}
        for i, s in enumerate(self.strata):
            for e in s.edges:
                self._level[e] = self._level[graph.inverse_of[e]] = i

    def __len__(self):
        return len(self.strata)

    def __iter__(self):
        return iter(self.strata)

    def __getitem__(self, i):
        return self.strata[i]

    def level(self, edge):
        """0-based stratum index of an edge."""
        return self._level[edge]

    def prefix_edges(self, r):
        """Edge set of G_r = union of the first r strata (r from 0 to N)."""
        return [e for s in self.strata[:r] for e in s.edges]

    def height(self, path):
        """Largest stratum index met by a path; -1 for trivial paths."""
        if not len(path):
            return -1
        return max(map(self._level.__getitem__, path.edges))


def dependencies(m):
    """Reachability table, cached: each edge E to the frozenset of edges that
    the images of E under f, f^2, ... cross, edge by edge before tightening
    (the transitive closure of "f(E) crosses X")."""
    if "dependencies" not in m._cache:
        base_of = m.graph.base_of
        crosses = {e: set(map(base_of.__getitem__, m.image_of[e])) for e in m.graph.edge_names}
        reach = {}
        for e, direct in crosses.items():
            seen, todo = set(direct), list(direct)
            while todo:
                for x in crosses[todo.pop()] - seen:
                    seen.add(x)
                    todo.append(x)
            reach[e] = frozenset(seen)
        m._cache["dependencies"] = reach
    return m._cache["dependencies"]


def compute_filtration(m):
    """Maximal filtration of a topological representative.

    Strata are the strongly connected components of the edge dependency
    digraph, read off :func:`dependencies`: E's component is E with every
    edge of its reach that reaches E back.  They are placed lowest first,
    each by the first unplaced edge in construction order whose reach
    outside its own component is placed: among the components whose
    dependencies are placed, the one containing the least edge.
    :func:`classify_strata` turns the ordered components into finished
    strata, linear classification included.
    """
    g = m.graph
    reach = dependencies(m)
    comp = {}
    for e in g.edge_names:
        if e not in comp:
            c = frozenset([e]).union(x for x in reach[e] if e in reach[x])
            comp.update(dict.fromkeys(c, c))
    placed, order = set(), []
    while len(placed) < len(comp):
        e = next(e for e in g.edge_names if e not in placed and reach[e] - comp[e] <= placed)
        order.append(comp[e])
        placed |= comp[e]
    return Filtration(g, classify_strata(m, order))


def classify_strata(m, components):
    """Finished strata of the maximal filtration, lowest first.

    ``components`` are the edge sets of the condensed dependency digraph in
    filtration order.  A component is zero when no image of its edges
    crosses it, fixed or NEG when its transition block is a permutation
    (fixed when every edge is its own image) and EG otherwise; contiguous
    zero components merge into one zero stratum.  A single edge {e} is read
    off its own image: its block is the 1x1 count c of the times f(e)
    crosses e, so it is zero for c = 0, fixed or NEG for c = 1 and EG for
    c >= 2, and no matrix is built.  A NEG stratum is a single edge; its
    normal form f(E) = E.u is looked for in both orientations, and it is
    linear when u is a Nielsen path: then u = w^d for the word root w,
    which is Nielsen too (roots are unique in free groups).
    """
    g = m.graph
    image_of, inverse_of = m.image_of, g.inverse_of
    strata = []
    for comp in components:
        if len(comp) == 1:
            edges = tuple(comp)
            e = edges[0]
            image = image_of[e]
            crossings = image.count(e) + image.count(inverse_of[e])
            zero, permutation = crossings == 0, crossings == 1
        else:
            edges = tuple(sorted(comp, key=g.edge_index))
            block = transition_matrix(m, edges)
            zero = not any(map(any, block))
            permutation = intlin.is_permutation_matrix(block)
        if zero:
            if strata and strata[-1].kind == "zero":
                edges = tuple(sorted(strata.pop().edges + edges, key=g.edge_index))
            strata.append(Stratum(edges, "zero"))
        elif not permutation:
            strata.append(Stratum(edges, "EG"))
        elif all(image_of[e] == (e,) for e in edges):
            strata.append(Stratum(edges, "fixed"))
        elif len(edges) > 1:
            raise InconsistentFiltration(
                "NEG stratum {%s} has more than one edge after maximal filtration"
                % " ".join(edges)
            )
        else:
            strata.append(_neg_stratum(m, edges[0]))
    return strata


def _neg_stratum(m, e):
    """The NEG stratum {e} with its normal form and linear classification.

    The normal form is read off the image tuples; only the path w the
    stratum keeps is built.  Linearity takes one f_#, of the word root w
    of u = w^d: f fixes u's base point, and roots are unique in its
    fundamental group, so f_#(w^d) = w^d exactly when f_#(w) = w (the
    lemma of :func:`nielsen._checked_family`)."""
    g = m.graph
    init_of, term_of = g.init_of, g.term_of
    for oriented in (e, g.inverse_of[e]):
        im = m.image_of[oriented]
        if len(im) >= 2 and im[0] == oriented and init_of[im[1]] == term_of[im[-1]]:
            break
    else:
        return Stratum((e,), "NEG", linear=False)
    root_edges, d = word_root(im[1:])
    w = Path(g, root_edges)
    if m.apply(w) != w:
        return Stratum((e,), "NEG", oriented, linear=False)
    return Stratum((e,), "NEG", oriented, True, w, d)


def filtration(m):
    """Cached :func:`compute_filtration`."""
    if "filtration" not in m._cache:
        m._cache["filtration"] = compute_filtration(m)
    return m._cache["filtration"]


def restrict(m, edge_subset):
    """The filtration of f|S, f restricted to an invariant edge set S (a
    filtration prefix), on m's own graph.

    Raises if S is not actually invariant.  Such a set S is a down-set of
    m's condensed dependency digraph, and f|S inherits m's filtration.
    Lemma: the greedy least-edge order of :func:`compute_filtration`,
    restricted to a down-set, is the down-set's greedy order.  (At the
    first difference the down-set's pick has the smaller key and was ready
    when m picked.)  A stratum's kind, normal form and axis depend only on
    its edge images, which f|S shares with f, so the strata of f|S are m's
    met with S, in m's order, zero strata that become adjacent merged, each
    other stratum m's own.  The filtration lives on m's graph: f|S is f
    read on the edges of S.

    Invariance is one set inclusion per kept edge against the cached
    closure of :func:`dependencies`: every image of S stays in S exactly
    when every edge of S reaches only edges of S.  The images are read only
    when it fails, to name the first edge whose image leaves S.
    """
    g = m.graph
    keep = {base_name(e) for e in edge_subset}
    reach = dependencies(m)
    if not all(reach[e] <= keep for e in keep if e in reach):
        base_of = g.base_of
        e = next(e for e in g.edge_names
                 if e in keep and any(base_of[x] not in keep for x in m.image_of[e]))
        raise InconsistentFiltration("edge set is not invariant: image of %r leaves it" % e)
    strata = []
    for s in filtration(m):
        edges = tuple(e for e in s.edges if e in keep)
        if edges and s.kind == "zero":
            if strata and strata[-1].kind == "zero":
                edges = tuple(sorted(strata.pop().edges + edges, key=g.edge_index))
            strata.append(Stratum(edges, "zero"))
        elif edges:
            strata.append(s)
    return Filtration(g, strata)


# -- directions and turns -------------------------------------------------------


def orbit_period(step, x):
    """Least k >= 1 with step^k(x) = x; 0 when the orbit of x never comes
    back to x, because it runs into a cycle that misses x or ``step``
    returns None."""
    seen = set()
    y, k = step(x), 1
    while y != x:
        if y is None or y in seen:
            return 0
        seen.add(y)
        y, k = step(y), k + 1
    return k


class DirectionMap:
    """The action Df on directions: an oriented edge goes to the first edge
    of its image.  A direction is fixed, periodic with its period, or
    pre-periodic, by exact orbit computation (:func:`orbit_period`)."""

    def __init__(self, m):
        self.m = m
        self.map = {d: m.image_of[d][0] for d in m.graph.directions()}

    def orbit_period(self, d):
        """(is_periodic, period) for a direction."""
        p = orbit_period(self.map.__getitem__, d)
        return p > 0, p

    def is_fixed(self, d):
        return self.map[d] == d

    def periodic_directions(self, v=None):
        """Periodic directions (optionally only those based at vertex v),
        as a list of (direction, period)."""
        out = []
        for d in self.m.graph.directions(v):
            ok, p = self.orbit_period(d)
            if ok:
                out.append((d, p))
        return out


def direction_map(m):
    if "direction_map" not in m._cache:
        m._cache["direction_map"] = DirectionMap(m)
    return m._cache["direction_map"]


def is_illegal_turn(m, d1, d2):
    """A turn is illegal when some Df iterate makes it degenerate.

    Once two merge they stay merged.  Each Df-orbit is periodic after its
    pre-period, which is below the number |D| of directions, and Df is a
    bijection on its periodic directions, so two distinct periodic
    directions never merge.  A merge therefore happens within the longer
    pre-period, and |D| iterates make the check exact.
    """
    dm = direction_map(m)
    a, b = d1, d2
    for _ in range(len(m.graph.directions())):
        if a == b:
            return True
        a, b = dm.map[a], dm.map[b]
    return False

