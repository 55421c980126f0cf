"""Self maps of marked graphs: images, transition matrices, filtrations.

A GraphMap sends vertices to vertices and each edge to a tightened
nontrivial edge path, with f(inverse edge) the reversed image.  The induced
map on paths substitutes edge images and tightens; this is the # operation
on paths and the only way images of paths are ever computed here.
"""

from itertools import chain

from .paths import Path, inverse, base_name
from .errors import EndpointMismatch, MalformedPath, InconsistentFiltration
from . import intlin


class GraphMap:
    """A topological representative: f(edge) = tight nontrivial path.

    ``edge_images`` maps positive edge names to Paths (or oriented-edge
    sequences).  Vertex images are derived from the edge images and checked
    for consistency; an explicit ``vertex_map`` is verified against them.
    ``image_of`` maps both orientations of every edge to the edge tuple of
    its image; f_# reads it instead of reversing images per call.
    """

    def __init__(self, graph, edge_images, vertex_map=None, name=None):
        self.graph = graph
        self.name = name
        imgs = {}
        for e in graph.edge_names:
            if e not in edge_images:
                raise MalformedPath("no image given for edge %r" % e)
            im = edge_images[e]
            if not isinstance(im, Path):
                im = graph.path(im)
            if im.graph is not graph:
                raise EndpointMismatch("image of %r lives in the wrong graph" % e)
            if im.is_trivial():
                raise MalformedPath("image of %r is trivial" % e)
            if graph.tighten(im.edges) != im:
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
        if vertex_map is not None:
            for v, w in vertex_map.items():
                if vmap.get(v) != w:
                    raise EndpointMismatch(
                        "declared vertex image %r -> %r contradicts edge images" % (v, w)
                    )
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
        """f_#: substitute edge images and tighten."""
        if path.graph is not self.graph:
            raise EndpointMismatch("path lives in the wrong graph")
        if path.is_trivial():
            return self.graph.trivial_path(self.vertex_map[path.base])
        out = list(chain.from_iterable(map(self.image_of.__getitem__, path.edges)))
        return self.graph.tighten(out, base=self.vertex_map[path.start])

    def iterate(self, path, k):
        """k-fold application of f_#; k=0 is the identity."""
        if k < 0:
            raise ValueError("iterate needs k >= 0")
        for _ in range(k):
            path = self.apply(path)
        return path

    def is_fixed_vertex(self, v):
        return self.vertex_map[v] == v

    def fixed_vertices(self):
        return [v for v in self.graph.vertices if self.is_fixed_vertex(v)]

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


def identity_map(graph):
    return GraphMap(graph, {e: graph.path([e]) for e in graph.edge_names})


def transition_matrix(m, order=None):
    """Integer matrix T[i][j] = crossings of edge i (either direction) by f(edge j).

    ``order`` fixes the row/column edge order; default is construction order.
    """
    order = list(order or m.graph.edge_names)
    index = {e: i for i, e in enumerate(order)}
    n = len(order)
    t = [[0] * n for _ in range(n)]
    for j, e in enumerate(order):
        for x in m.edge_images[e].edges:
            nm = base_name(x)
            if nm in index:
                t[index[nm]][j] += 1
    return t


# -- filtration ---------------------------------------------------------------


class Stratum:
    """One filtration stratum: an edge set plus its combinatorial kind.

    kind is one of "fixed", "zero", "NEG", "EG".  NEG strata are refined to
    linear / non-linear by the Nielsen machinery, which fills in ``linear``,
    ``axis`` and ``exponent``; until then ``linear`` is None.

    For non-fixed NEG single edges, ``neg_edge`` is the oriented edge E with
    f(E) = E.u when such an orientation exists and ``neg_suffix`` is the
    closed path u; some NEG edges have no such normal form and keep None.
    """

    def __init__(self, edges, kind):
        self.edges = tuple(edges)
        self.kind = kind
        self.neg_edge = None
        self.neg_suffix = None
        self.linear = None
        self.axis = None
        self.exponent = None

    def __contains__(self, edge):
        return base_name(edge) in self.edges

    def __repr__(self):
        return "<stratum %s {%s}>" % (self.kind, " ".join(self.edges))


class Filtration:
    """Maximal invariant filtration: ordered strata, lowest first."""

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
        out = []
        for s in self.strata[:r]:
            out.extend(s.edges)
        return out

    def height(self, path):
        """Largest stratum index met by a path; -1 for trivial paths."""
        if not len(path):
            return -1
        return max(self.level(e) for e in path.edges)


def _sccs(adj, nodes):
    """Tarjan strongly connected components, deterministic order."""
    index = {}
    low = {}
    onstack = {}
    stack = []
    out = []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(adj[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        onstack[v] = True
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                out.append(frozenset(comp))

    for v in nodes:
        if v not in index:
            strongconnect(v)
    return out


def compute_filtration(m):
    """Maximal filtration of a topological representative.

    Strata are the strongly connected components of the edge dependency
    digraph (E depends on the edges its image crosses), condensed and
    ordered topologically lowest first; among incomparable components the
    one containing the least edge (construction order) comes first.
    Contiguous zero components (image entirely below, no self-crossing)
    are merged into a single zero stratum.
    """
    g = m.graph
    edges = list(g.edge_names)
    adj = {e: set() for e in edges}
    for e in edges:
        for x in m.edge_images[e].edges:
            adj[e].add(base_name(x))
    comps = _sccs(adj, edges)
    comp_of = {}
    for c in comps:
        for e in c:
            comp_of[e] = c
    # condensation: c1 -> c2 when some edge of c1 crosses an edge of c2.
    # c2 must then sit at the same or lower level, so process components
    # whose dependencies are all placed, lowest names first.
    deps = {c: set() for c in comps}
    for e in edges:
        for x in adj[e]:
            if comp_of[e] is not comp_of[x]:
                deps[comp_of[e]].add(comp_of[x])
    placed = []
    placed_set = set()
    remaining = set(comps)
    while remaining:
        ready = [c for c in remaining if deps[c] <= placed_set]
        if not ready:
            raise InconsistentFiltration("dependency cycle escaped the SCCs")
        ready.sort(key=lambda c: min(g.edge_index(e) for e in c))
        c = ready[0]
        placed.append(c)
        placed_set.add(c)
        remaining.remove(c)

    def kind_of(c):
        sub = sorted(c, key=g.edge_index)
        block = [[0] * len(sub) for _ in sub]
        pos = {e: i for i, e in enumerate(sub)}
        for e in sub:
            for x in m.edge_images[e].edges:
                if base_name(x) in pos:
                    block[pos[base_name(x)]][pos[e]] += 1
        if all(all(v == 0 for v in row) for row in block):
            return "zero", block
        if intlin.is_permutation_matrix(block):
            if all(m.edge_images[e].edges == (e,) for e in sub):
                return "fixed", block
            return "NEG", block
        return "EG", block

    raw = []
    for c in placed:
        kind, block = kind_of(c)
        raw.append((sorted(c, key=g.edge_index), kind))
    # merge contiguous zero components into one stratum
    strata = []
    for edges_sorted, kind in raw:
        if kind == "zero" and strata and strata[-1].kind == "zero":
            merged = sorted(strata[-1].edges + tuple(edges_sorted), key=g.edge_index)
            strata[-1] = Stratum(merged, "zero")
        else:
            strata.append(Stratum(edges_sorted, kind))
    # NEG annotations
    for s in strata:
        if s.kind == "NEG":
            if len(s.edges) > 1:
                raise InconsistentFiltration(
                    "NEG stratum {%s} has more than one edge after maximal filtration"
                    % " ".join(s.edges)
                )
            e = s.edges[0]
            for oriented in (e, inverse(e)):
                im = m.image(oriented)
                if len(im) >= 2 and im.edges[0] == oriented:
                    u = im.subpath(1, len(im))
                    if u.is_closed():
                        s.neg_edge = oriented
                        s.neg_suffix = u
                        break
    return Filtration(g, strata)


def filtration(m):
    """Cached :func:`compute_filtration`."""
    if "filtration" not in m._cache:
        m._cache["filtration"] = compute_filtration(m)
    return m._cache["filtration"]


def restrict(m, edge_subset, vertices=None):
    """Restriction of the map to an invariant subgraph (filtration prefix).

    The subgraph is rebuilt as an intermediate MarkedGraph (valence-one
    vertices allowed).  Raises if the edge set is not actually invariant.
    """
    from .paths import MarkedGraph

    g = m.graph
    keep = {base_name(e) for e in edge_subset}
    vs = vertices or sorted(g.incident_vertices(keep))
    sub = MarkedGraph(vs, [(e, g.init(e), g.term(e)) for e in g.edge_names if e in keep],
                      intermediate=True)
    imgs = {}
    for e in sub.edge_names:
        im = m.edge_images[e]
        for x in im.edges:
            if base_name(x) not in keep:
                raise InconsistentFiltration(
                    "edge set is not invariant: image of %r leaves it" % e
                )
        imgs[e] = sub.path(im.edges)
    return GraphMap(sub, imgs)


# -- directions and turns -------------------------------------------------------


class DirectionMap:
    """The action Df on directions: an oriented edge goes to the first edge
    of its image.  Directions are classified as fixed / periodic(period) /
    pre-periodic by exact orbit computation."""

    def __init__(self, m):
        self.m = m
        self.map = {d: m.image(d).edges[0] for d in m.graph.directions()}

    def orbit_period(self, d):
        """(is_periodic, period) for a direction."""
        seen = {d: 0}
        x = d
        while True:
            x = self.map[x]
            if x == d:
                return True, len(seen)
            if x in seen:
                return False, 0
            seen[x] = len(seen)

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

    def classify(self, d):
        ok, p = self.orbit_period(d)
        if ok and p == 1:
            return "fixed"
        if ok:
            return "periodic(%d)" % p
        return "pre-periodic"


def direction_map(m):
    if "direction_map" not in m._cache:
        m._cache["direction_map"] = DirectionMap(m)
    return m._cache["direction_map"]


def turns(graph, v=None):
    """All unordered direction pairs at common vertices (degenerate included)."""
    out = []
    for w in graph.vertices if v is None else [v]:
        ds = graph.directions(w)
        for i in range(len(ds)):
            for j in range(i, len(ds)):
                out.append(frozenset((ds[i], ds[j])) if ds[i] != ds[j] else frozenset((ds[i],)))
    return out


def is_illegal_turn(m, d1, d2):
    """A turn is illegal when some Df iterate makes it degenerate.

    Orbits of direction pairs stabilize within (number of directions)^2
    steps, so the check is exact.
    """
    dm = direction_map(m)
    a, b = d1, d2
    bound = len(m.graph.directions()) ** 2 + 1
    for _ in range(bound):
        if a == b:
            return True
        a, b = dm.map[a], dm.map[b]
    return False


def illegal_turns(m):
    """All illegal turns, as a set of frozensets (size 1 = degenerate)."""
    if "illegal_turns" in m._cache:
        return m._cache["illegal_turns"]
    out = set()
    for t in turns(m.graph):
        pair = tuple(t)
        if len(pair) == 1:
            out.add(t)
        elif is_illegal_turn(m, pair[0], pair[1]):
            out.add(t)
    m._cache["illegal_turns"] = out
    return out


def turns_crossed(graph, path):
    """Turns taken at the interior vertices of a path: (inverse(e_i), e_{i+1})."""
    out = []
    for a, b in zip(path.edges, path.edges[1:]):
        x, y = inverse(a), b
        out.append(frozenset((x, y)) if x != y else frozenset((x,)))
    return out


def is_legal_path(m, path):
    ill = illegal_turns(m)
    return all(t not in ill for t in turns_crossed(m.graph, path))


def classify_strata(m, catalog=None):
    """Filtration with NEG strata refined into linear / non-linear.

    A NEG stratum is linear when its suffix u is a Nielsen path equal to
    w^d for a primitive closed Nielsen path w (d nonzero; both orientations
    of the edge are tried when looking for the E.u normal form).  The axis
    word and exponent are recorded on the stratum.  Needs the Nielsen
    machinery; ``catalog`` is built on demand when omitted.
    """
    from . import nielsen

    filt = filtration(m)
    linear = {le.edge: le for le in nielsen.detect_linear_edges(m, catalog)}
    for s in filt:
        if s.kind != "NEG":
            continue
        if s.neg_edge is not None and s.neg_edge in linear:
            le = linear[s.neg_edge]
            s.linear = True
            s.axis = le.word
            s.exponent = le.exponent
        else:
            s.linear = False
    return filt
