"""Marked graphs and tightened edge paths.

Conventions used throughout the package:

* An unoriented edge is named by a string like ``"E1"``.  The two
  orientations of an edge are the name itself and the name with a trailing
  apostrophe (``"E1'"`` is ``E1`` read backwards).  Tokens of this shape are
  called oriented edges.
* A path is a tightened sequence of oriented edges in which consecutive
  edges are incident.  Tightened means no ``X`` immediately followed by
  ``X'`` (or vice versa).  A trivial path carries its basepoint so that
  endpoint bookkeeping stays exact.
* Values are immutable, so an operation may return an argument unchanged.

Oriented-edge tables: a :class:`MarkedGraph` builds, once in its
constructor, five dicts keyed by every oriented-edge token of the graph:
``inverse_of`` (the reversed token), ``base_of`` (its unoriented name),
``init_of`` and ``term_of`` (its end vertices) and ``order_key`` (``(edge
index, is_inverse)``, the package's total order on oriented edges).  The
path kernel -- ``path``, ``tighten`` and ``Path.reverse``/``start``/``end``
-- and the hot loops of the other modules (the transition matrix and the
dependency closure among them) read these tables and never take a token
apart.  A token that is not a key is not an edge of the graph, so the same
lookups also validate.  The string helpers :func:`inverse` and
:func:`base_name` remain for parsing, for code that has no graph at hand
and for cold bookkeeping.

Subgraph facts: :class:`MarkedGraph` is their one home.  For the subgraph
an edge set spans (either orientation names an edge), ``incident_vertices``,
``euler_characteristic``, ``components``, ``rank``, ``valences``,
``is_forest`` (also relative to a base, the retraction test of the rank
audit's stages) and ``tree_paths`` answer from the tables above; no other
module keeps a copy.

Validating and trusting code: ``path`` and ``tighten`` check every edge;
they are the boundary for documents and public constructors.  A
:class:`Path` is tight, so ``GraphMap.apply``, ``concat``, ``power`` and the
catalog sweep join Paths and edge images by the unchecked seam rule of
:meth:`MarkedGraph.seam_extend`.
"""

from .errors import MalformedPath, EndpointMismatch


def inverse(edge):
    """Reverse an oriented edge token.

    >>> inverse("E1"), inverse("E1'")
    ("E1'", 'E1')
    """
    return edge[:-1] if edge.endswith("'") else edge + "'"


def base_name(edge):
    """Unoriented name of an oriented edge."""
    return edge[:-1] if edge.endswith("'") else edge


class MarkedGraph:
    """A finite connected graph with named unoriented edges.

    ``edges`` is an iterable of ``(name, init, term)`` triples; the order of
    this iterable is remembered and used as the tie-breaking total order on
    edges everywhere in the package, so all downstream computations are
    deterministic.

    ``vertex_index`` maps each vertex to its position in ``vertices``, the
    order in which vertices are compared.

    Valence-one vertices are rejected unless ``intermediate=True``.  Only
    reference implementations in the tests build such graphs, rebuilding a
    map's restriction to a filtration prefix as a map of its own, where
    dangling vertices are legitimate; the package reads a prefix on the
    map's own graph (:func:`maps.restrict`).
    """

    def __init__(self, vertices, edges, intermediate=False):
        self.vertices = tuple(vertices)
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vertex_index) != len(self.vertices):
            raise MalformedPath("duplicate vertex names")
        self.edge_names = []
        self._ends = {}
        for name, init, term in edges:
            if name.endswith("'"):
                raise MalformedPath("edge name %r may not end with an apostrophe" % name)
            if name in self._ends:
                raise MalformedPath("duplicate edge name %r" % name)
            if init not in self.vertex_index or term not in self.vertex_index:
                raise MalformedPath("edge %r has an unknown endpoint" % name)
            self.edge_names.append(name)
            self._ends[name] = (init, term)
        self.edge_names = tuple(self.edge_names)
        self.inverse_of = {}
        self.base_of = {}
        self.init_of = {}
        self.term_of = {}
        self.order_key = {}
        self._directions = []
        for i, name in enumerate(self.edge_names):
            init, term = self._ends[name]
            bar = name + "'"
            self.inverse_of[name], self.inverse_of[bar] = bar, name
            self.base_of[name] = self.base_of[bar] = name
            self.init_of[name], self.init_of[bar] = init, term
            self.term_of[name], self.term_of[bar] = term, init
            self.order_key[name], self.order_key[bar] = (i, False), (i, True)
            self._directions += (name, bar)
        if not intermediate:
            for v, n in self.valences().items():
                if n == 1:
                    raise MalformedPath("vertex %r has valence one" % v)
                if n == 0 and len(self.vertices) > 1:
                    raise MalformedPath("vertex %r is isolated" % v)

    # -- edge bookkeeping ------------------------------------------------

    def has_edge(self, edge):
        return edge in self.inverse_of

    def edge_index(self, edge):
        """Position of the underlying unoriented edge in construction order."""
        return self.order_key[edge][0]

    def init(self, edge):
        """Initial vertex of an oriented edge."""
        return self.init_of[edge]

    def term(self, edge):
        """Terminal vertex of an oriented edge."""
        return self.term_of[edge]

    def is_loop(self, edge):
        return self.init_of[edge] == self.term_of[edge]

    def directions(self, v=None):
        """Oriented edges, optionally only those based (initial) at ``v``.

        Ordered by (edge construction order, orientation), which fixes the
        deterministic order used for tie-breaking.
        """
        if v is None:
            return list(self._directions)
        return [e for e in self._directions if self.init_of[e] == v]

    # -- paths -----------------------------------------------------------

    def trivial_path(self, v):
        if v not in self.vertex_index:
            raise MalformedPath("unknown basepoint %r" % v)
        return Path(self, (), base=v)

    def path(self, edges, base=None):
        """Build a Path from an already tight sequence of oriented edges.

        Raises MalformedPath if the sequence is not incident-consecutive or
        contains an adjacent inverse pair.  Use :meth:`tighten` for raw
        sequences.
        """
        edges = tuple(edges)
        if not edges:
            if base is None:
                raise MalformedPath("a trivial path needs a basepoint")
            return self.trivial_path(base)
        init_of, term_of, inverse_of = self.init_of, self.term_of, self.inverse_of
        try:
            at = init_of[edges[0]]
            back = None
            for e in edges:
                if init_of[e] != at or e == back:
                    break
                at = term_of[e]
                back = inverse_of[e]
            else:
                return Path(self, edges)
        except KeyError:
            pass
        raise self._fault(edges, backtracking=True)

    def tighten(self, edges, base=None):
        """Free reduction: cancel adjacent inverse pairs until none remain.

        ``edges`` must still be incident-consecutive (a genuine unreduced
        edge path); ``base`` is required only when everything cancels and
        the sequence is empty to begin with.  Idempotent.
        """
        edges = tuple(edges)
        init_of, term_of, inverse_of = self.init_of, self.term_of, self.inverse_of
        stack = []
        push, pop = stack.append, stack.pop
        top = None
        try:
            at = init_of[edges[0]] if edges else None
            for e in edges:
                if init_of[e] != at:
                    break
                at = term_of[e]
                if top == inverse_of[e]:
                    pop()
                    top = stack[-1] if stack else None
                else:
                    push(e)
                    top = e
            else:
                if stack:
                    return Path(self, stack)
                if edges and base is None:
                    base = init_of[edges[0]]
                return self.trivial_path(base)
        except KeyError:
            pass
        raise self._fault(edges, backtracking=False)

    def seam_extend(self, out, pieces):
        """Append nonempty tight pieces to the tight edge list ``out`` by the
        seam rule: [out . piece] cancels only where the two meet, so pop
        while out's last edge inverts the piece's next one, then extend by
        the rest.  Unchecked: callers know their pieces are tight and meet.
        Returns the least length ``out`` had on the way."""
        inverse_of = self.inverse_of
        extend, pop = out.extend, out.pop
        low = len(out)
        for piece in pieces:
            if out and out[-1] == inverse_of[piece[0]]:
                pop()
                i, n = 1, len(piece)
                while i < n and out and out[-1] == inverse_of[piece[i]]:
                    pop()
                    i += 1
                low = min(low, len(out))
                extend(piece[i:])
            else:
                extend(piece)
        return low

    def _fault(self, edges, backtracking):
        """The MalformedPath for the first fault of a rejected sequence.

        Unknown edges are reported before bad neighbour pairs, and pairs in
        path order, so the message does not depend on where the single
        pass of :meth:`path` or :meth:`tighten` stopped.
        """
        for e in edges:
            if e not in self.inverse_of:
                return MalformedPath("unknown edge %r" % e)
        for a, b in zip(edges, edges[1:]):
            if self.term_of[a] != self.init_of[b]:
                return MalformedPath("edges %r and %r are not incident" % (a, b))
            if backtracking and b == self.inverse_of[a]:
                return MalformedPath("path contains backtracking %r %r" % (a, b))
        raise AssertionError("no fault in %r" % (edges,))

    # -- subgraphs and invariants -----------------------------------------

    def incident_vertices(self, edge_subset):
        return {v for e in edge_subset for v in self._ends[self.base_of[e]]}

    def euler_characteristic(self, edge_subset=None):
        """|V| - |E| of the subgraph spanned by ``edge_subset``.

        With no argument, of the whole graph.  The spanned subgraph keeps
        only vertices incident to a chosen edge.
        """
        if edge_subset is None:
            return len(self.vertices) - len(self.edge_names)
        edge_subset = {base_name(e) for e in edge_subset}
        return len(self.incident_vertices(edge_subset)) - len(edge_subset)

    def components(self, edge_subset=None):
        """Connected components of the subgraph spanned by an edge set.

        Returns a list of (frozenset of vertices, frozenset of edge names),
        ordered by least contained edge.  Isolated vertices of the ambient
        graph are not reported when ``edge_subset`` is given.
        """
        if edge_subset is None:
            edge_subset = set(self.edge_names)
        edge_subset = {base_name(e) for e in edge_subset}
        classes = UnionFind(self.vertex_index.__getitem__)
        for name in edge_subset:
            classes.union(*self._ends[name])
        groups = {}
        for name in sorted(edge_subset, key=self.order_key.get):
            root = classes.find(self._ends[name][0])
            groups.setdefault(root, ([], set()))[0].append(name)
            groups[root][1].update(self._ends[name])
        comps = [(frozenset(vs), frozenset(es)) for es, vs in groups.values()]
        comps.sort(key=lambda c: min(self.order_key[e] for e in c[1]))
        return comps

    def valences(self, edge_subset=None):
        """Each vertex's valence in the subgraph an edge set spans (default:
        the whole graph), a loop counting twice and a vertex off it 0.

        >>> g = MarkedGraph(["u", "v"], [("A", "u", "v"), ("B", "u", "v"), ("L", "v", "v")])
        >>> g.valences(["A", "L"])
        {'u': 1, 'v': 3}
        """
        names = self.edge_names if edge_subset is None else {self.base_of[e] for e in edge_subset}
        valence = dict.fromkeys(self.vertices, 0)
        for name in names:
            init, term = self._ends[name]
            valence[init] += 1
            valence[term] += 1
        return valence

    def is_forest(self, edge_subset, base=()):
        """Do the edges of ``edge_subset`` outside ``base`` span a forest
        once the vertices of ``base`` are identified to one point?

        For a base inside the subgraph, exactly when the subgraph retracts
        to the base by pruning hanging edges (at a valence-one vertex off
        the base): a tree meeting the base's vertices at most once always
        has a leaf off the base to prune, while no edge of a cycle, or of
        a path between two base vertices, ever hangs.

        >>> g = MarkedGraph(["u", "v"], [("A", "u", "v"), ("B", "u", "v"), ("L", "v", "v")])
        >>> g.is_forest(["A", "B"]), g.is_forest(["A", "L"], base=["L"])
        (False, True)
        """
        ends = self._ends
        base = {self.base_of[e] for e in base}
        base_verts = [v for name in base for v in ends[name]]
        classes = UnionFind(self.vertex_index.__getitem__)
        for v in base_verts[1:]:
            classes.union(base_verts[0], v)
        names = {self.base_of[e] for e in edge_subset} - base
        return all(classes.union(*ends[name]) for name in names)

    def tree_paths(self, base, edge_subset=None):
        """The breadth-first tree from ``base`` in the subgraph an edge set
        spans (default: the whole graph), each vertex trying its directions
        in order: the tree path to every vertex of base's component.

        >>> g = MarkedGraph(["u", "v"], [("A", "u", "v"), ("B", "u", "v"), ("L", "v", "v")])
        >>> g.tree_paths("v", ["B", "L"])
        {'v': <trivial path at v>, 'u': <path B'>}
        """
        allowed = None if edge_subset is None else {self.base_of[e] for e in edge_subset}
        paths = {base: self.trivial_path(base)}
        reached = [base]
        for v in reached:
            for d in self.directions(v):
                w = self.term_of[d]
                if w not in paths and (allowed is None or self.base_of[d] in allowed):
                    paths[w] = Path(self, paths[v].edges + (d,))
                    reached.append(w)
        return paths

    def rank(self, edge_subset=None):
        """Rank of the fundamental group of the spanned subgraph.

        Sum of first Betti numbers over components: for a connected graph
        this is 1 - euler characteristic.
        """
        comps = self.components(edge_subset)
        return sum(len(es) - len(vs) + 1 for vs, es in comps)

    def __repr__(self):
        return "MarkedGraph(%d vertices, %d edges)" % (
            len(self.vertices),
            len(self.edge_names),
        )


class Path:
    """A tightened edge path in a fixed MarkedGraph.

    Do not call the constructor directly in normal code; use
    ``graph.path``, ``graph.tighten`` or ``graph.trivial_path`` which
    validate their input.
    """

    __slots__ = ("graph", "edges", "base")

    def __init__(self, graph, edges, base=None):
        self.graph = graph
        self.edges = tuple(edges)
        self.base = base if not self.edges else None

    @property
    def start(self):
        return self.base if not self.edges else self.graph.init_of[self.edges[0]]

    @property
    def end(self):
        return self.base if not self.edges else self.graph.term_of[self.edges[-1]]

    def is_trivial(self):
        return not self.edges

    def is_closed(self):
        return self.start == self.end

    def reverse(self):
        if not self.edges:
            return self
        return Path(self.graph, map(self.graph.inverse_of.__getitem__, reversed(self.edges)))

    def concat(self, other):
        """Concatenate and tighten at the seam.  Endpoints must match."""
        if other.graph is not self.graph:
            raise EndpointMismatch("paths live in different graphs")
        if self.end != other.start:
            raise EndpointMismatch(
                "cannot concatenate: %r ends at %r, %r starts at %r"
                % (self, self.end, other, other.start)
            )
        if not other.edges:
            return self
        out = list(self.edges)
        self.graph.seam_extend(out, (other.edges,))
        return Path(self.graph, out) if out else self.graph.trivial_path(self.start)

    def power(self, k):
        """k-th power of a closed path w = p.c.p^-1 (k may be negative):
        p.c^k.p^-1 is tight as written when c is cyclically reduced."""
        if not self.is_closed():
            raise EndpointMismatch("only closed paths have powers")
        if k == 0 or not self.edges:
            return self.graph.trivial_path(self.start)
        edges = (self if k > 0 else self.reverse()).edges
        p, core = cyclic_decompose(edges)
        return Path(self.graph, p + core * abs(k) + edges[len(p) + len(core):])

    def subpath(self, i, j):
        """Edges i..j-1 as a path (trivial subpaths keep the right basepoint)."""
        if not 0 <= i <= j <= len(self.edges):
            raise MalformedPath("bad subpath bounds")
        if i == j:
            v = self.start if i == 0 else self.graph.term(self.edges[i - 1])
            return self.graph.trivial_path(v)
        return Path(self.graph, self.edges[i:j])

    def starts_with(self, other):
        return self.edges[: len(other.edges)] == other.edges

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def __getitem__(self, i):
        return self.edges[i]

    def __eq__(self, other):
        if not isinstance(other, Path):
            return NotImplemented
        return bool(
            self.graph is other.graph
            and self.edges == other.edges
            and (self.edges or self.base == other.base)
        )

    def __hash__(self):
        return hash((id(self.graph), self.edges, self.base))

    def __repr__(self):
        if not self.edges:
            return "<trivial path at %s>" % self.base
        return "<path %s>" % " ".join(self.edges)


def cyclic_decompose(word):
    """word = p . core . p^-1 with core cyclically reduced; returns (p, core)."""
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == inverse(word[j - 1]):
        i += 1
        j -= 1
    return word[:i], word[i:j]


def word_root(seq):
    """Smallest period decomposition of a tuple: return (root, k), seq = root^k.

    >>> word_root(("a", "b", "a", "b"))
    (('a', 'b'), 2)
    """
    seq = tuple(seq)
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[:p] * (n // p):
            return seq[:p], n // p
    return seq, 1


class UnionFind:
    """Disjoint sets of hashable items; an item never seen is a singleton.

    The representative of a class is always its least member under ``key``
    (the items themselves when no key is given), so representatives, and
    any order derived from them, do not depend on the order of the unions.
    """

    def __init__(self, key=None):
        self._parent = {}
        self._key = key if key is not None else (lambda x: x)

    def find(self, x):
        parent = self._parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        """Merge the classes of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._key(rb) < self._key(ra):
            ra, rb = rb, ra
        self._parent[rb] = ra
        return True
