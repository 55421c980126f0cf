"""Verification of the completely split train track structure.

A topological representative is accepted when it satisfies the clause list

    (R)   forward rotationless,
    (V)   attaching vertices principal and fixed,
    (NEG) non-fixed NEG strata in normal form f(E) = E.u with principal
          initial vertex,
    (L)   linear edges over a common axis carry one word and distinct
          exponents,
    (N)   periodic Nielsen paths have period one; at most one indivisible
          Nielsen path per EG stratum; those of non-EG height have the
          shape E w^k Ebar over a linear stratum,
    (Per) non-trivial components of the periodic subgraph are pointwise
          fixed sets of principal vertices,
    (Z)   zero strata are exactly the contractible filtration components,
          are enveloped by EG strata, map by immersions, and leave no
          low-valence vertices behind,
    (CS)  images of edges in irreducible strata and of connecting paths in
          zero strata are completely split.

Quantification over Nielsen paths is relative to the finite catalog of
:mod:`nielsen`, which lists the pairs of stable prefixes it finds within
its length and period bounds and makes no claim beyond them.  It is not
exhaustive within them either: on ``qe_rose`` at length bound 6 it holds 9
of the 97 Nielsen paths that brute force finds, and on ``A -> A, B -> B'``
at length bound 5 the periodic list lacks ``A A B``.  Every report carries
a caveat line recording the bounds.  Direction and vertex periodicity are
exact.
"""

from .maps import direction_map, filtration, orbit_period
from .nielsen import axes, build_catalog
from .errors import LViolation, NotCompletelySplit
from .paths import UnionFind, base_name, inverse


class Clause:
    """Verdict for one named condition with human-readable evidence."""

    def __init__(self, key, failures, witnesses=()):
        self.key = key
        self.failures = list(failures)
        self.witnesses = list(witnesses)

    @property
    def passed(self):
        return not self.failures

    def __repr__(self):
        return "<clause %s %s>" % (self.key, "pass" if self.passed else "FAIL")


class CTReport:
    """Clause-by-clause verdicts; passes only when every clause holds."""

    CLAUSE_ORDER = ("R", "V", "NEG", "L", "N", "Per", "Z", "CS")

    def __init__(self, m, clauses, caveats):
        self.map = m
        self.clauses = clauses
        self.caveats = list(caveats)

    @property
    def passed(self):
        return all(c.passed for c in self.clauses.values())

    def lines(self):
        out = []
        for key in self.CLAUSE_ORDER:
            c = self.clauses[key]
            out.append("(%s) %s" % (key, "pass" if c.passed else "FAIL"))
            for w in c.failures:
                out.append("    " + w)
        for note in self.caveats:
            out.append("note: " + note)
        return out

    def __str__(self):
        return "\n".join(self.lines())


# -- periodicity ---------------------------------------------------------------


def vertex_period(m, v):
    """Exact period of a vertex under the vertex map; 0 when pre-periodic."""
    return orbit_period(m.vertex_map.__getitem__, v)


def edge_period(m, e):
    """Period of an edge whose whole orbit consists of single edges; else 0.

    An edge with f^k(E) = E (as oriented edges, allowing an orientation
    flip along the way) is pointwise periodic, so it lies in the periodic
    subgraph.
    """
    image_of = m.image_of
    return orbit_period(lambda x: image_of[x][0] if len(image_of[x]) == 1 else None, e)


def periodic_subgraph(m):
    """Edge names spanning the non-trivial part of the periodic set, as a
    tuple cached on the map."""
    if "periodic_subgraph" not in m._cache:
        m._cache["periodic_subgraph"] = tuple(
            e for e in m.graph.edge_names if edge_period(m, e)
        )
    return m._cache["periodic_subgraph"]


def _subset_valence(g, v, edges):
    names = {base_name(e) for e in edges}
    return sum(1 for d in g.directions(v) if base_name(d) in names)


def nielsen_classes(m, catalog=None):
    """Partition of the periodic vertices into within-bound Nielsen classes.

    Two periodic vertices fall in one class when a catalog (periodic)
    Nielsen path, a fixed edge or a periodically permuted edge runs
    between them.  Completeness is inherited from the catalog bound.  The
    members E w^k Ebar of a linear family start and end at init(E), so
    only the generic entries are read.
    """
    cat = catalog if catalog is not None else build_catalog(m)
    g = m.graph
    periodic = {v for v in g.vertices if vertex_period(m, v)}
    uf = UnionFind(g.vertex_index.__getitem__)
    for e in periodic_subgraph(m):
        uf.union(g.init(e), g.term(e))
    for entry in list(cat.generic) + list(cat.periodic):
        p = entry.path
        if p.start in periodic and p.end in periodic:
            uf.union(p.start, p.end)
    classes = {}
    for v in periodic:
        classes.setdefault(uf.find(v), set()).add(v)
    return [frozenset(classes[root]) for root in sorted(classes, key=g.vertex_index.__getitem__)]


def principal_vertices(m, catalog=None):
    """Periodic vertices that are principal.

    A periodic vertex is principal unless it is alone in its Nielsen class
    with exactly two periodic directions lying in one EG stratum, or it
    sits on a circle component of the periodic subgraph all of whose
    vertices have exactly two periodic directions.
    """
    cat = catalog if catalog is not None else build_catalog(m)
    g = m.graph
    dm = direction_map(m)
    filt = filtration(m)
    class_of = {v: cls for cls in nielsen_classes(m, cat) for v in cls}
    pdirs = {v: dm.periodic_directions(v) for v in class_of}
    on_circles = set()
    for vs, es in g.components(periodic_subgraph(m)):
        if len(es) == len(vs) and all(
            _subset_valence(g, v, es) == 2 and len(pdirs[v]) == 2 for v in vs
        ):
            on_circles |= vs
    out = []
    for v in g.vertices:
        if v not in class_of or v in on_circles:
            continue
        if len(class_of[v]) == 1 and len(pdirs[v]) == 2:
            levels = {filt.level(d) for d, _ in pdirs[v]}
            if len(levels) == 1 and filt[levels.pop()].kind == "EG":
                continue
        out.append(v)
    return out


# -- connecting paths ----------------------------------------------------------


def _tree_path(g, edges, u, v):
    """Tight path from u to v inside an edge subset, or None."""
    allowed = {base_name(e) for e in edges}
    prev = {u: None}
    queue = [u]
    while queue:
        x = queue.pop(0)
        if x == v:
            break
        for d in g.directions(x):
            if base_name(d) not in allowed:
                continue
            y = g.term(d)
            if y not in prev:
                prev[y] = (x, d)
                queue.append(y)
    if v not in prev:
        return None
    steps = []
    x = v
    while prev[x] is not None:
        x, d = prev[x]
        steps.append(d)
    return g.path(reversed(steps), base=u)


def connecting_paths(m, stratum_index, filt=None):
    """Paths in a zero stratum between vertices that meet EG strata.

    The zero stratum components are trees, so each pair of anchor
    vertices in one component is joined by a unique tight path.
    """
    filt = filt if filt is not None else filtration(m)
    s = filt[stratum_index]
    g = m.graph
    eg_edges = set()
    for t in filt:
        if t.kind == "EG":
            eg_edges.update(t.edges)
    anchors = g.incident_vertices(eg_edges) & g.incident_vertices(s.edges)
    anchors = sorted(anchors, key=g.vertex_index.__getitem__)
    out = []
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            p = _tree_path(g, s.edges, anchors[i], anchors[j])
            if p is not None and len(p):
                out.append(p)
    return out


# -- the clause checks ---------------------------------------------------------


def _clause_r(m, principal):
    """Forward rotationless: principal vertices and their periodic
    directions are fixed.  Endpoints of indivisible periodic Nielsen paths
    are vertices by construction in this edge-path model, so that part of
    the definition holds automatically; a caveat of the report says so."""
    dm = direction_map(m)
    failures = []
    for v in principal:
        p = vertex_period(m, v)
        if p != 1:
            failures.append("principal vertex %s has period %d" % (v, p))
        for d, k in dm.periodic_directions(v):
            if k != 1:
                failures.append(
                    "periodic direction %s at principal vertex %s has period %d"
                    % (d, v, k)
                )
    return Clause("R", failures, ["%d principal vertices" % len(principal)])


def _attaching_vertices(g, filt, prefix_comps):
    """v -> (r, s) for vertices in a non-contractible component of some
    prefix G_r that also bound an edge of a higher stratum."""
    out = {}
    for r in range(1, len(filt)):
        noncontract = set()
        for vs, es in prefix_comps[r]:
            if len(es) >= len(vs):
                noncontract |= vs
        if not noncontract:
            continue
        for s in range(r, len(filt)):
            for e in filt[s].edges:
                for v in (g.init(e), g.term(e)):
                    if v in noncontract and v not in out:
                        out[v] = (r, s)
    return out


def _clause_v(m, filt, principal, prefix_comps):
    g = m.graph
    failures = []
    attach = _attaching_vertices(g, filt, prefix_comps)
    for v in sorted(attach, key=g.vertex_index.__getitem__):
        r, s = attach[v]
        if v not in principal:
            failures.append(
                "attaching vertex %s (prefix %d, stratum %d) is not principal"
                % (v, r, s)
            )
        elif m.vertex_map[v] != v:
            failures.append("attaching vertex %s is not fixed" % v)
    return Clause("V", failures, ["%d attaching vertices" % len(attach)])


def _clause_neg(m, filt, principal):
    g = m.graph
    failures = []
    count = 0
    for i, s in enumerate(filt):
        if s.kind != "NEG":
            continue
        count += 1
        if s.neg_edge is None:
            failures.append(
                "NEG stratum %d {%s} has no f(E) = E.u normal form"
                % (i, " ".join(s.edges))
            )
            continue
        if g.init(s.neg_edge) not in principal:
            failures.append(
                "initial vertex %s of NEG edge %s is not principal"
                % (g.init(s.neg_edge), s.neg_edge)
            )
    return Clause("NEG", failures, ["%d NEG strata" % count])


def _clause_l(m):
    try:
        axs = axes(m)
    except LViolation as exc:
        return Clause("L", [str(exc)])
    witnesses = []
    for ax in axs:
        witnesses.append(
            "axis %s: %s"
            % (
                " ".join(ax.word.edges),
                ", ".join("%s^%d" % (e, d) for e, d in ax.members),
            )
        )
    return Clause("L", [], witnesses)


def _linear_inp_shape(s, sigma):
    """Does sigma read E w^k Ebar, k >= 1, over the linear stratum s, w its
    axis or the reverse?  Read backwards, E u Ebar is E reverse(u) Ebar, so
    one reading decides."""
    e, w, mid = s.neg_edge, s.axis.edges, sigma.edges[1:-1]
    k = len(mid) // len(w)
    return (k > 0 and sigma.edges[0] == e and sigma.edges[-1] == inverse(e)
            and mid in (w * k, s.axis.reverse().edges * k))


def _clause_n(m, filt, cat):
    failures = []
    for entry in cat.periodic:
        failures.append(
            "Nielsen path %s has period %d"
            % (" ".join(entry.path.edges), entry.period)
        )
    # a family member reads E w^k Ebar at E's linear NEG level by
    # construction: only the generic iNps are checked
    inps = [x for x in cat.generic if x.indivisible]
    n_families = sum(not composite for _, _, composite in cat.families.values())
    by_height = {}
    for entry in inps:
        by_height.setdefault(entry.height, []).append(entry)
    for r in sorted(by_height):
        entries = by_height[r]
        kind = filt[r].kind
        if kind == "EG":
            if len(entries) > 1:
                failures.append(
                    "EG stratum %d carries %d indivisible Nielsen paths"
                    % (r, len(entries))
                )
            continue
        for entry in entries:
            if kind != "NEG" or not filt[r].linear:
                failures.append(
                    "indivisible Nielsen path %s has height %d in a "
                    "non-linear %s stratum" % (" ".join(entry.path.edges), r, kind)
                )
            elif not _linear_inp_shape(filt[r], entry.path):
                failures.append(
                    "indivisible Nielsen path %s of linear height %d does "
                    "not read E w^k Ebar" % (" ".join(entry.path.edges), r)
                )
    return Clause("N", failures, [
        "%d indivisible Nielsen paths" % len(inps),
        "%d indivisible linear families" % n_families,
    ])


def _clause_per(m, filt, principal):
    g = m.graph
    failures = []
    comps = g.components(periodic_subgraph(m))
    for vs, es in comps:
        label = " ".join(sorted(es))
        for v in sorted(vs, key=g.vertex_index.__getitem__):
            if v not in principal:
                failures.append(
                    "vertex %s of periodic component {%s} is not principal"
                    % (v, label)
                )
            if m.vertex_map[v] != v:
                failures.append(
                    "vertex %s of periodic component {%s} is not fixed"
                    % (v, label)
                )
        for e in sorted(es):
            if m.edge_images[e].edges != (e,):
                failures.append(
                    "edge %s of periodic component {%s} is not pointwise fixed"
                    % (e, label)
                )
        if len(es) == len(vs) - 1:
            for r in sorted({filt.level(e) for e in es}):
                below = filt.prefix_edges(r)
                if not any(
                    _subset_valence(g, v, below) >= 2 for v in vs
                ):
                    failures.append(
                        "contractible periodic component {%s} meets stratum "
                        "%d but no vertex has valence >= 2 below it"
                        % (label, r)
                    )
    return Clause(
        "Per", failures, ["%d non-trivial periodic components" % len(comps)]
    )


def _clause_z(m, filt, prefix_comps):
    g = m.graph
    dm = direction_map(m)
    failures = []
    for i, s in enumerate(filt):
        stratum_edges = set(s.edges)
        comps = [(vs, es) for vs, es in prefix_comps[i + 1] if es & stratum_edges]
        if s.kind == "zero":
            for vs, es in comps:
                if not es <= stratum_edges:
                    failures.append(
                        "zero stratum %d shares a filtration component with "
                        "lower edges {%s}" % (i, " ".join(sorted(es - stratum_edges)))
                    )
                elif len(es) != len(vs) - 1:
                    failures.append(
                        "zero stratum %d has a non-contractible component" % i
                    )
        else:
            for vs, es in comps:
                if es <= stratum_edges and len(es) == len(vs) - 1:
                    failures.append(
                        "%s stratum %d is a contractible component of its "
                        "filtration level but is not a zero stratum"
                        % (s.kind, i)
                    )
    for i, s in enumerate(filt):
        if s.kind != "zero":
            continue
        j = next(
            (j for j in range(i + 1, len(filt)) if filt[j].kind != "zero"),
            None,
        )
        if j is None:
            failures.append("zero stratum %d has no irreducible stratum above" % i)
        elif filt[j].kind != "EG":
            failures.append(
                "first irreducible stratum %d above zero stratum %d is %s, "
                "not EG" % (j, i, filt[j].kind)
            )
        else:
            for vs, es in prefix_comps[j + 1]:
                if len(es) < len(vs):
                    failures.append(
                        "prefix through stratum %d has a contractible "
                        "component above zero stratum %d" % (j, i)
                    )
        for v in sorted(g.incident_vertices(s.edges)):
            ds = [d for d in g.directions(v) if base_name(d) in set(s.edges)]
            for a in range(len(ds)):
                for b in range(a + 1, len(ds)):
                    if dm.map[ds[a]] == dm.map[ds[b]]:
                        failures.append(
                            "restriction to zero stratum %d is not an "
                            "immersion: Df folds %s and %s at %s"
                            % (i, ds[a], ds[b], v)
                        )
    for v in g.vertices:
        ds = g.directions(v)
        if not ds:
            continue
        levels = {filt.level(d) for d in ds}
        if len(levels) == 1 and filt[next(iter(levels))].kind == "zero":
            if len(ds) < 3:
                failures.append(
                    "link of %s lies in zero stratum %d but its valence is %d"
                    % (v, levels.pop(), len(ds))
                )
    return Clause("Z", failures)


def _clause_cs(m, filt, cat):
    try:
        return _split_images(m, filt, cat)
    except LViolation as exc:
        return Clause("CS", ["splittings not evaluated: %s" % exc])


def _split_images(m, filt, cat):
    failures = []
    split = 0
    for s in filt:
        if s.kind == "zero":
            continue
        for e in s.edges:
            try:
                cat.image_qe_split(m.graph.path([e]))
            except NotCompletelySplit as exc:
                failures.append("f(%s) is not completely split: %s" % (e, exc))
                continue
            split += 1
    for i, s in enumerate(filt):
        if s.kind != "zero":
            continue
        for sigma in connecting_paths(m, i, filt):
            text = " ".join(sigma.edges)
            img = m.apply(sigma)
            if len(img) != sum(len(m.image(e)) for e in sigma.edges):
                failures.append(
                    "restriction to connecting path %s is not an immersion"
                    % text
                )
                continue
            try:
                cat.image_qe_split(sigma)
            except NotCompletelySplit as exc:
                failures.append(
                    "image of connecting path %s is not completely split: %s"
                    % (text, exc)
                )
                continue
            split += 1
    return Clause("CS", failures, ["%d images completely split" % split])


def check_ct(m, bound=None):
    """Full structural report; raises InconsistentFiltration when the map
    does not respect any maximal filtration at all, and MalformedPath when
    the periodic Nielsen search finds a power f^k that maps an edge to a
    trivial path (then f is no homotopy equivalence).

    Each derived structure is built once and shared by the clauses: the
    catalog, the principal vertices, the periodic subgraph (cached on the
    map) and the components of every filtration prefix G_0, ..., G_N.
    """
    cat = build_catalog(m, bound)
    filt = filtration(m)
    g = m.graph
    principal = principal_vertices(m, cat)
    prefix_comps = [g.components(filt.prefix_edges(r)) for r in range(len(filt) + 1)]
    clauses = {
        "R": _clause_r(m, principal),
        "V": _clause_v(m, filt, principal, prefix_comps),
        "NEG": _clause_neg(m, filt, principal),
        "L": _clause_l(m),
        "N": _clause_n(m, filt, cat),
        "Per": _clause_per(m, filt, principal),
        "Z": _clause_z(m, filt, prefix_comps),
        "CS": _clause_cs(m, filt, cat),
    }
    caveats = [
        "Nielsen-path quantifiers searched to length %d and period %d"
        % (cat.bound, cat.period_bound),
        "endpoints of periodic Nielsen paths are vertices by construction",
    ]
    caveats.extend("search budget hit: %s" % note for note in cat.budgets_hit)
    return CTReport(m, clauses, caveats)
