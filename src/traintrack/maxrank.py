"""Rank growth along the filtration and the shape of maximal configurations.

Disintegrating the restriction of a map to each filtration prefix, on the
map's own graph, gives a sequence of lattice ranks R_0, R_1, ..., R_N.  The
sequence is not monotone: a new stratum can add a class (rank up) or add a
relation tying old classes together (rank down).  Grouping the strata into
stages whose boundary prefixes have no valence-one vertices, each stage
satisfies the Euler bound

    delta R  <=  2 * delta chi - delta,

where delta is 1 exactly when some vertex of the lower boundary graph
carries a fixed direction into the new strata.  Equality forces the stage
into one of four shapes: a full FPS subgraph with delta 0, a partial FPS
subgraph with delta 1, a single linear edge with delta 1, or a pair of
linear edges hanging from a common new vertex with delta 0.  ("FPS" is a
reminder of the four-punctured sphere, whose mapping class group realizes
the model case.)

This module computes the rank sequence, audits the bound stage by stage,
detects FPS subgraphs clause by clause, and classifies maps whose lattice
attains the maximal rank 2n-3 (or 2n-4 inside the kernel of the homology
action) as a base piece plus a tower of equality stages.  Both answers are
about the map, not about the order a document lists its edges in: one
memoised search over the valid stratum orders (:func:`valid_orders`)
groups the strata as it places them and checks each stage as it closes,
and the audit and the classifier each take the first order whose stages
all pass their check.  The stage helpers read the filtration that order
lists so far.  The module also builds the two standard families realizing
those maxima on a subdivided rose, and the vertex-split surgery used to
renormalize twisting exponents.
"""

from .disintegrate import disintegrate
from .errors import InputError, InvariantForestError
from .freegroup import homology_class, is_IA
from .maps import Filtration, GraphMap, dependencies, direction_map, filtration
from .nielsen import build_catalog, is_nielsen_path
from .paths import MarkedGraph, base_name, inverse


# -- invariant forests ---------------------------------------------------------


def find_invariant_forest(m):
    """A nontrivial invariant subforest, or None.

    Every invariant subgraph contains the closure of each of its edges
    under "crosses the image of", so if any invariant forest exists then
    some single-edge closure is one.  A seed's closure is the seed with its
    reach in :func:`~traintrack.maps.dependencies`.  Returns the edge names
    of the first closure in construction order that is a forest.
    """
    g = m.graph
    reach = dependencies(m)
    for seed in g.edge_names:
        closure = reach[seed] | {seed}
        if g.is_forest(closure):
            return tuple(sorted(closure, key=g.edge_index))
    return None


# -- the stratum-order search --------------------------------------------------


def valid_orders(m, check):
    """Generate the valid stratum orders of m (each stratum after the strata
    its images cross) whose stage grouping is proper and passes ``check``,
    depth-first in index order, so that construction order comes first.

    The strata are grouped as they are placed.  The base block is the
    bottom stratum and each next one that is not a forest and meets none of
    the block's vertices.  After it a boundary falls at each prefix with an
    irreducible (not zero) top and no valence-one vertex, and the last
    prefix closes the last stage in any case.  Every other prefix with an
    irreducible top must retract to the floor, the last boundary below it
    (:meth:`MarkedGraph.is_forest` with the floor as base); an order where
    one does not is not proper.

    At each boundary ``check(filt, grouping)`` runs on the filtration the
    order lists so far and the boundaries so far, the first one closing the
    base block.  A string rejects the order there; any other value is that
    boundary's record.  An accepted order comes out as (order, grouping,
    records).

    Memo lemma: whether a partial order extends to an accepted one depends
    only on its state, the strata placed, the floor (None in the base block)
    and the strata below any zero strata on top.  The grouping reads each
    prefix as an edge set, and a check reads a stage through its floor, its
    strata as a set and its top stratum, which the step into the state
    fixes.  Two reads of the order inside a stage remain.  A stage rank
    strips the zero strata on top (:func:`stage_ranks`), which only the
    last stage can end on; the state's third part fixes what is stripped.
    An FPS window lists its linear strata in order, which changes the
    witness's listing but none of its clauses; and the window of three that
    would reach below the floor never matches, since a linear edge on top
    of a floor would leave a valence-one vertex there.  So a state that led
    to no accepted order is recorded and never expanded again.
    """
    search = _OrderSearch(m, check)
    yield from search.expand(frozenset(), None, frozenset())


class _OrderSearch:
    """The path and the failed states of one :func:`valid_orders` search."""

    def __init__(self, m, check):
        self.filt = filt = filtration(m)
        self.graph = m.graph
        self.check = check
        self.sup = [{filt.level(x) for e in s.edges for x in m.image_of[e]} for s in filt]
        self.verts = [m.graph.incident_vertices(s.edges) for s in filt]
        self.dead = set()
        self.order, self.grouping, self.records = [], [], []

    def edges(self, strata):
        return [e for i in strata for e in self.filt[i].edges]

    def close(self):
        """Put a boundary at the current prefix; False if the check rejects it."""
        self.grouping.append(len(self.order))
        listed = Filtration(self.graph, [self.filt[i] for i in self.order])
        record = self.check(listed, self.grouping)
        if isinstance(record, str):
            self.grouping.pop()
            return False
        self.records.append(record)
        return True

    def expand(self, placed, floor, below):
        g, filt, grouping = self.graph, self.filt, self.grouping
        depth = len(grouping)
        accepted = False
        if len(placed) == len(filt) and (floor == placed or self.close()):
            # the last prefix closes the last stage, or the base block
            accepted = True
            yield tuple(self.order), list(grouping), list(self.records)
            del grouping[depth:], self.records[depth:]
        for i in range(len(filt)):
            if i in placed or not self.sup[i] <= placed | {i}:
                continue
            s, grown = filt[i], placed | {i}
            stage_floor = floor
            if floor is None and placed and (
                self.verts[i] & set().union(*(self.verts[j] for j in placed))
                or g.is_forest(s.edges)
            ):
                # i is the first stratum past the base block, which closes
                if not self.close():
                    continue
                stage_floor = placed
            self.order.append(i)
            ok = True
            if stage_floor is not None and s.kind != "zero":
                if 1 not in g.valences(self.edges(grown)).values():
                    ok = self.close()
                    stage_floor = grown
                elif len(grown) < len(filt):
                    ok = g.is_forest(self.edges(grown), self.edges(stage_floor))
            key = (grown, stage_floor, below if s.kind == "zero" else grown)
            if ok and key not in self.dead:
                for found in self.expand(*key):
                    accepted = True
                    yield found
            self.order.pop()
            del grouping[depth:], self.records[depth:]
        if not accepted:
            self.dead.add((placed, floor, below))


# -- rank sequence ---------------------------------------------------------------


def _prefix_ranks(m, catalog=None):
    """A function rank(filt, j): the lattice rank of the first j strata of
    ``filt``, a filtration of m, below any zero strata on top, with
    ``catalog`` (default: m's default-bound one).  Every prefix is
    disintegrated once, whichever order lists it: its rank depends only on
    its edge set."""
    cat = catalog if catalog is not None else build_catalog(m)
    known = {}

    def rank(filt, j):
        while j > 0 and filt[j - 1].kind == "zero":
            j -= 1
        edges = filt.prefix_edges(j)
        key = frozenset(edges)
        if key not in known:
            known[key] = disintegrate(m, cat, edges).lattice.rank if edges else 0
        return known[key]

    return rank


def stage_ranks(m, filt=None, rank=None):
    """Lattice ranks [R_0, ..., R_N] of the restrictions to the prefixes of
    ``filt``, a filtration of m (default m's own, or one a valid stratum
    order lists); R_j belongs to the union of the first j strata.

    Zero strata on top of a prefix are stripped before disintegrating (they
    carry neither fundamental group nor twisting, and the subgraph decompo-
    sition is only defined once an irreducible stratum sits above them).
    Every prefix is invariant, so it is disintegrated on the map's own
    graph: its filtration is the map's met with the prefix
    (:func:`maps.restrict`), and it reads the map's one catalog and
    edge-image splittings (:meth:`NielsenCatalog.image_qe_split`).  No
    graph or map is built.  ``rank`` is a memo from :func:`_prefix_ranks`,
    to share the prefixes already disintegrated for m.
    """
    if filt is None:
        filt = filtration(m)
    if rank is None:
        rank = _prefix_ranks(m)
    return [rank(filt, j) for j in range(len(filt) + 1)]


def _linear_pair(g, window, floor_verts):
    """Is the stage window a pair of linear edges hanging from a common
    vertex off the stage floor?"""
    if len(window) != 2 or not all(s.kind == "NEG" and s.linear for s in window):
        return False
    v0, v1 = (g.init(s.neg_edge) for s in window)
    return v0 == v1 and v0 not in floor_verts


# -- FPS witnesses ---------------------------------------------------------------


class FPSWitness:
    """Evidence that a stratum window is a (partial or full) FPS subgraph.

    ``l`` is the prefix count below the window, ``strata`` the 1-based
    prefix positions of the window (the last one is the EG stratum).  A
    partial witness has two linear edges and allows lower Nielsen paths in
    EG images; a full witness has three linear edges and does not.
    """

    def __init__(self, kind, l, strata, linear, alphas, eg_edges, shape, chi_drop):
        self.kind = kind
        self.l = l
        self.strata = tuple(strata)
        self.linear = tuple(linear)  # (edge, exponent, hanging vertex)
        self.alphas = tuple(alphas)
        self.eg_edges = tuple(eg_edges)
        self.shape = shape
        self.chi_drop = chi_drop

    def lines(self):
        out = [
            "%s FPS subgraph over G_%d (strata %s)"
            % (self.kind, self.l, "..".join(str(s) for s in (self.strata[0], self.strata[-1]))),
            "  shape: %s on {%s}" % (self.shape, " ".join(self.eg_edges)),
            "  euler drop: %d" % self.chi_drop,
        ]
        for (edge, d, v), alpha in zip(self.linear, self.alphas):
            out.append(
                "  linear %s from %s twisting (%s)^%d"
                % (edge, v, " ".join(alpha.edges), d)
            )
        return out

    def __repr__(self):
        return "<%s FPS strata %s..%s>" % (self.kind, self.strata[0], self.strata[-1])


def _window_shape(g, eg_edges, attach, forbidden_center_verts):
    comps = g.components(eg_edges)
    if len(comps) != 1 or len(comps[0][1]) != len(comps[0][0]) - 1:
        return None
    vs, _ = comps[0]
    deg = g.valences(eg_edges)
    leaves = {v for v in vs if deg[v] == 1}
    branch = {v for v in vs if deg[v] >= 3}
    if not branch:
        if leaves <= attach and attach <= vs:
            return "pair-of-arcs"
        return None
    if len(branch) == 1:
        c = next(iter(branch))
        if deg[c] == 3 and c not in forbidden_center_verts and leaves == attach:
            return "triad"
    return None


def _grammar_ok(m, path, eg_names, lin_strata, allow_low, low_pred):
    """Is the edge path a concatenation of EG edges, twist conjugates
    E.alpha^k.Ebar of the window's linear edges and (when allowed) Nielsen
    paths below the window?"""
    g = m.graph
    linmap = {base_name(s.neg_edge): s for s in lin_strata}
    edges = path.edges
    i = 0
    while i < len(edges):
        e = edges[i]
        b = base_name(e)
        if b in eg_names:
            i += 1
            continue
        if b in linmap:
            st = linmap[b]
            if e != st.neg_edge:
                return False
            fwd = st.axis.edges
            rev = tuple(inverse(x) for x in reversed(fwd))
            step = len(fwd)
            j = i + 1
            while tuple(edges[j : j + step]) in (fwd, rev):
                j += step
            if j == i + 1 or j >= len(edges) or edges[j] != inverse(st.neg_edge):
                return False
            i = j + 1
            continue
        if allow_low and low_pred(e):
            j = i
            while j < len(edges) and low_pred(edges[j]):
                j += 1
            if not is_nielsen_path(m, g.path(edges[i:j])):
                return False
            i = j
            continue
        return False
    return True


def _match_window(m, filt, s_pos, count):
    g = m.graph
    if s_pos < count + 1:
        return None
    l_pos = s_pos - count
    lin = filt.strata[l_pos:s_pos]
    if any(s.kind != "NEG" or not s.linear for s in lin):
        return None
    gl = filt.prefix_edges(l_pos)
    gl_verts = g.incident_vertices(gl)
    hang = []
    for s in lin:
        for x in s.axis.edges:
            if filt.level(x) >= l_pos:
                return None
        v = g.init(s.neg_edge)
        if v in gl_verts:
            return None
        hang.append(v)
    if len(set(hang)) != count:
        return None
    below = filt.prefix_edges(s_pos)
    if not g.is_forest(below, gl):
        return None
    eg = filt[s_pos]
    below_verts = g.incident_vertices(below)
    attach = g.incident_vertices(eg.edges) & below_verts
    if count == 3:
        if attach != set(hang):
            return None
    else:
        extra = attach - set(hang)
        if not (set(hang) <= attach and len(extra) == 1 and extra <= gl_verts):
            return None
    shape = _window_shape(g, set(eg.edges), attach, below_verts)
    if shape is None:
        return None
    low_pred = lambda e: filt.level(e) < l_pos
    for e in eg.edges:
        if not _grammar_ok(m, m.edge_images[e], set(eg.edges), lin, count == 2, low_pred):
            return None
    chi_drop = g.euler_characteristic(gl) - g.euler_characteristic(
        filt.prefix_edges(s_pos + 1)
    )
    return FPSWitness(
        kind="full" if count == 3 else "partial",
        l=l_pos,
        strata=tuple(range(l_pos + 1, s_pos + 2)),
        linear=[(s.neg_edge, s.exponent, g.init(s.neg_edge)) for s in lin],
        alphas=[s.axis for s in lin],
        eg_edges=eg.edges,
        shape=shape,
        chi_drop=chi_drop,
    )


def _stage_witness(m, filt, lo, hi):
    """The FPS witness of the window under the stratum at hi - 1, if it
    starts at G_lo (or anywhere, for lo None); else None."""
    p = hi - 1
    w = filt[p].kind == "EG" and (_match_window(m, filt, p, 3) or _match_window(m, filt, p, 2))
    return w if w and lo in (None, w.l) else None


def detect_fps(m, filt=None):
    """All partial and full FPS subgraph windows of ``filt`` (default m's
    filtration), one witness per EG stratum.

    A window is an EG stratum together with the run of linear edges just
    below it; every clause (linear normal forms over lower Nielsen words,
    distinct hanging vertices, retractability, attachment vertex set,
    arc-pair or triad shape, image grammar) is checked exactly.  For a full
    window the attachment set is read against the graph below the EG
    stratum, which includes the third hanging vertex.
    """
    if filt is None:
        filt = filtration(m)
    windows = (_stage_witness(m, filt, None, p) for p in range(1, len(filt) + 1))
    return [w for w in windows if w is not None]


# -- the stage audit -------------------------------------------------------------


class StageRecord:
    """One stage of the audit: prefix interval, rank jump and its bound."""

    def __init__(self, lo, hi, delta_r, delta_chi, delta, case, witness, ok):
        self.lo = lo
        self.hi = hi
        self.delta_r = delta_r
        self.delta_chi = delta_chi
        self.delta = delta
        self.bound = 2 * delta_chi - delta
        self.equality = delta_r == self.bound
        self.case = case
        self.witness = witness
        self.ok = ok

    def line(self):
        tag = "=" if self.equality else "<"
        case = " case (%s)" % self.case if self.case else ""
        return "G_%d -> G_%d: dR=%d %s 2*%d - %d%s%s" % (
            self.lo,
            self.hi,
            self.delta_r,
            tag,
            self.delta_chi,
            self.delta,
            case,
            "" if self.ok else "  [VIOLATION]",
        )


NO_PROPER_ORDER = "no valid stratum order has a proper stage grouping"


class RankAudit:
    """Stage-by-stage audit of the Euler rank bound along one stratum order
    (None when no valid order has a proper stage grouping)."""

    def __init__(self, m, order, grouping, ranks, stages):
        self.map = m
        self.order = order
        self.grouping = list(grouping)
        self.ranks = list(ranks)
        self.stages = list(stages)

    @property
    def passed(self):
        return self.order is not None and all(s.ok for s in self.stages)

    def lines(self):
        if self.order is None:
            return [NO_PROPER_ORDER, "audit FAILED"]
        out = ["ranks %s" % self.ranks, "stages %s" % self.grouping]
        out.extend("  " + s.line() for s in self.stages)
        if list(self.order) != sorted(self.order):
            out.append("strata reordered: %s" % (self.order,))
        out.append("audit %s" % ("passed" if self.passed else "FAILED"))
        return out


def _stage_delta(m, dmap, floor_verts, window_edges):
    g = m.graph
    for e in window_edges:
        for d in (e, inverse(e)):
            if g.init(d) in floor_verts and dmap.is_fixed(d):
                return 1
    return 0


def rank_audit(m, catalog=None):
    """Audit delta R <= 2 delta chi - delta over a proper stage grouping.

    Equality stages are tagged with the shape that explains them: (a) full
    FPS with delta 0, (b) partial FPS with delta 1, (c) a single linear
    edge with delta 1, (d) a pair of linear edges hanging from a common new
    vertex with delta 0.  An equality stage matching no shape, or a stage
    breaking the bound, fails that stage.

    The audit reads the first stratum order, in :func:`valid_orders`'s
    search, whose stages all pass, so the verdict is the map's and not its
    listing's; on an unshuffled document that is construction order.  When
    no order passes, it reports the first order with a proper grouping and
    its failing stages (for a verified train track map that indicates an
    invalid input), and when no order has a proper grouping, it says so.
    The search and the rank sequence share one disintegration per prefix,
    each with ``catalog`` (default: m's default-bound one).
    """
    g = m.graph
    dmap = direction_map(m)
    rank = _prefix_ranks(m, catalog)

    def stage(filt, grouping):
        # the record of the stage the newest boundary closes
        if len(grouping) < 2:
            return None
        lo, hi = grouping[-2:]
        window = filt.strata[lo:hi]
        floor_edges = filt.prefix_edges(lo)
        floor_verts = g.incident_vertices(floor_edges)
        delta = _stage_delta(m, dmap, floor_verts, [e for s in window for e in s.edges])
        delta_chi = g.euler_characteristic(floor_edges) - g.euler_characteristic(
            filt.prefix_edges(hi)
        )
        delta_r = rank(filt, hi) - rank(filt, lo)
        shape = None
        witness = _stage_witness(m, filt, lo, hi)
        if witness is not None and witness.kind == "full" and delta == 0:
            shape = "a"
        elif witness is not None and witness.kind == "partial" and delta == 1:
            shape = "b"
        elif len(window) == 1 and window[0].kind == "NEG" and window[0].linear and delta == 1:
            shape = "c"
        elif delta == 0 and _linear_pair(g, window, floor_verts):
            shape = "d"
        bound = 2 * delta_chi - delta
        equality = delta_r == bound
        case = shape if equality else None
        ok = delta_r <= bound and (not equality or case is not None)
        return StageRecord(lo, hi, delta_r, delta_chi, delta, case, witness, ok)

    def passing(filt, grouping):
        record = stage(filt, grouping)
        return record.line() if record is not None and not record.ok else record

    found = next(valid_orders(m, passing), None) or next(valid_orders(m, stage), None)
    if found is None:
        return RankAudit(m, None, [], [], [])
    order, grouping, records = found
    filt = filtration(m)
    ranks = stage_ranks(m, Filtration(g, [filt[i] for i in order]), rank)
    return RankAudit(m, order, grouping, ranks, records[1:])


# -- classification of maximal rank ----------------------------------------------


class MaxRankReport:
    """Outcome of matching a map against the maximal-rank decompositions."""

    def __init__(self, mode, n, target, rank, ia, matched, base, stages, order, obstruction):
        self.mode = mode
        self.n = n
        self.target = target
        self.rank = rank
        self.ia = ia
        self.matched = matched
        self.base = base
        self.stages = list(stages)
        self.order = order
        self.obstruction = obstruction

    @property
    def ok(self):
        return self.matched and self.rank == self.target

    def lines(self):
        out = [
            "mode %s: rank(L)=%d, maximal target %d (n=%d)%s"
            % (self.mode, self.rank, self.target, self.n,
               ", homology action trivial" if self.ia else "")
        ]
        if self.matched:
            out.append("base: %s" % (self.base,))
            for st in self.stages:
                out.append("stage: %s" % (st,))
            if self.order is not None and list(self.order) != sorted(self.order):
                out.append("strata reordered: %s" % (self.order,))
        else:
            out.append("not maximal: %s" % self.obstruction)
        return out


def _base_case(m, filt, grouping, mode):
    """The base case that the bottom of ``filt`` matches, read off its base
    block alone (``grouping`` of length one) or with the first stage
    (length two); None when it matches none there."""
    g, s0 = m.graph, filt[0]
    if grouping[0] != 1:
        return None
    if len(grouping) == 1:
        return ("A", 1) if mode == "general" and s0.kind == "EG" and g.rank(s0.edges) == 2 else None
    s1, hi = filt[1], grouping[1]
    if mode == "ia":
        edges = filt.prefix_edges(2)
        if (hi == 2 and s0.kind == s1.kind == "fixed" and len(g.components(edges)) == 1
                and g.rank(edges) == 2):
            return ("A", "rank-two fixed subgraph")
        return None
    if s0.kind != "fixed" or len(s0.edges) != 1:
        return None
    if (hi == 2 and s1.kind == "NEG" and s1.linear and len(s1.axis.edges) == 1
            and base_name(s1.axis.edges[0]) == s0.edges[0]):
        return ("A", 2)
    w = _stage_witness(m, filt, 1, hi)
    if g.is_loop(s0.edges[0]) and w and w.kind == "partial" and g.rank(filt.prefix_edges(hi)) == 3:
        return ("A", 3)
    return None


def _axes_homologically_trivial(paths):
    return all(all(c == 0 for c in homology_class(p)) for p in paths)


NO_BASE = "bottom of the filtration matches no base case"


def _structure_stage(m, mode, n, filt, grouping):
    """The piece of the decomposition that the newest boundary of
    ``grouping`` closes in ``filt``, a filtration of m's n strata: the base
    case (None while the base waits for its first stage), a stage, or the
    obstruction that rejects it."""
    g = m.graph
    if len(grouping) == 1:
        base = _base_case(m, filt, grouping, mode)
        return NO_BASE if base is None and (grouping[0] != 1 or n == 1) else base
    if len(grouping) == 2 and _base_case(m, filt, grouping[:1], mode) is None:
        return _base_case(m, filt, grouping, mode) or NO_BASE
    lo, hi = grouping[-2:]
    window = filt.strata[lo:hi]
    if _linear_pair(g, window, g.incident_vertices(filt.prefix_edges(lo))):
        if mode == "ia" and not _axes_homologically_trivial([s.axis for s in window]):
            return "stage G_%d..G_%d: linear pair with homologically nontrivial axis" % (lo, hi)
        return ("B", 1, tuple(s.neg_edge for s in window))
    w = _stage_witness(m, filt, lo, hi)
    if w is not None and w.kind == "full":
        if mode == "ia" and not _axes_homologically_trivial(w.alphas):
            return "stage G_%d..G_%d: FPS subgraph with homologically nontrivial axis" % (lo, hi)
        return ("B", 2, w)
    return "stage G_%d..G_%d matches neither a linear pair nor an FPS subgraph" % (lo, hi)


def classify_max_rank(m, mode="general", catalog=None):
    """Match a maximal-rank map against the base-plus-stages decompositions.

    ``mode`` "general" targets lattice rank 2n-3; "ia" targets 2n-4 and
    requires the homology action to be trivial, which it checks before the
    rank.  The free group's rank n must be at least 2, and the map must
    carry no nontrivial invariant forest (collapse those first).  The match is the
    first stratum order, in :func:`valid_orders`'s search, whose base and
    stages all match a shape; the search checks each stage as it closes,
    so the answer is exact and not bounded by a number of orders.  A
    refusal names the first rejection the search met, or says that no
    valid order has a proper stage grouping.  The lattice rank is that of
    the disintegration with ``catalog`` (default: m's default-bound one).
    """
    mode = mode.lower()
    if mode not in ("general", "ia"):
        raise InputError("mode must be 'general' or 'ia', not %r" % mode)
    g = m.graph
    n = g.rank()
    if n < 2:
        raise InputError("the maximal-rank classification needs n >= 2, got n=%d" % n)
    forest = find_invariant_forest(m)
    if forest is not None:
        raise InvariantForestError(
            "nontrivial invariant forest {%s}; collapse it before classifying"
            % " ".join(forest)
        )
    target = 2 * n - 3 if mode == "general" else 2 * n - 4
    dis = disintegrate(m, catalog)
    rank = dis.lattice.rank
    ia = is_IA(m)

    def report(matched, base=None, stages=(), order=None, obstruction=None):
        return MaxRankReport(mode, n, target, rank, ia, matched, base, stages, order, obstruction)

    # outside IA the ia target 2n-4 does not apply, so that comes first
    if mode == "ia" and not ia:
        return report(False, obstruction="the map acts nontrivially on homology")
    if rank != target:
        return report(False, obstruction="rank(L) is %d, not %d" % (rank, target))

    strata = len(filtration(m))
    rejections = []

    def check(filt, grouping):
        piece = _structure_stage(m, mode, strata, filt, grouping)
        if isinstance(piece, str):
            rejections.append(piece)
        return piece

    found = next(valid_orders(m, check), None)
    if found is None:
        return report(False, obstruction=rejections[0] if rejections else NO_PROPER_ORDER)
    order, _, records = found
    base, *stages = [r for r in records if r is not None]
    return report(True, base=base, stages=stages, order=order)


# -- the two standard maximal families -------------------------------------------


class TwistFamily:
    """A subdivided rose together with commuting single-twist generators
    and one generic member with pairwise distinct twisting exponents."""

    def __init__(self, kind, n, graph, generators, generic, word=None):
        self.kind = kind
        self.n = n
        self.graph = graph
        self.generators = tuple(generators)
        self.generic = generic
        self.word = word

    def __repr__(self):
        return "<type %s family n=%d, %d generators>" % (
            self.kind,
            self.n,
            len(self.generators),
        )


def _family_graph(n):
    vertices = ["v%d" % k for k in range(1, n)]
    edges = [("E1", "v1", "v1"), ("E2", "v1", "v1")]
    for k in range(2, n):
        edges.append(("E%d" % (2 * k - 1), "v%d" % k, "v1"))
        edges.append(("E%d" % (2 * k), "v%d" % k, "v1"))
    return MarkedGraph(vertices, edges)


def _identity_images(g):
    return {e: g.path([e]) for e in g.edge_names}


def gen_type_e(n):
    """The rank-(2n-3) twist family on a rose with n-2 subdivided petals.

    E1 and E2 are petals at the central vertex; each subdivided petal
    contributes a pair of edges hanging from its midpoint.  Generator i
    twists E_(i+1) once around E1; the generic member twists E_j by
    E1^(j-1), so all exponents are distinct and the lattice has full rank.
    """
    if n < 3:
        raise InputError("the twist family needs n >= 3, got %d" % n)
    g = _family_graph(n)
    gens = []
    for i in range(1, 2 * n - 2):
        imgs = _identity_images(g)
        name = "E%d" % (i + 1)
        imgs[name] = g.path([name, "E1"])
        gens.append(GraphMap(g, imgs, name="eta_%d" % i))
    imgs = _identity_images(g)
    for j in range(2, 2 * n - 1):
        name = "E%d" % j
        imgs[name] = g.path([name] + ["E1"] * (j - 1))
    generic = GraphMap(g, imgs, name="type_e_generic")
    return TwistFamily("E", n, g, gens, generic)


def gen_type_c(n, w=None):
    """The rank-(2n-4) homologically trivial twist family, n >= 4.

    Same graph as the type E family; the twisting word ``w`` (a closed
    edge path at the central vertex using only E1 and E2, trivial in
    homology, default the commutator E1 E2 E1' E2') twists every
    subdivided-petal edge.  All members act trivially on homology.
    """
    if n < 4:
        raise InputError("the homologically trivial family needs n >= 4, got %d" % n)
    g = _family_graph(n)
    word = list(w) if w is not None else ["E1", "E2", "E1'", "E2'"]
    for x in word:
        if base_name(x) not in ("E1", "E2"):
            raise InputError("twisting word must use only E1 and E2, got %r" % x)
    path = g.tighten(word, base="v1")
    if path.is_trivial():
        raise InputError("twisting word is trivial")
    if path.start != "v1" or path.end != "v1":
        raise InputError("twisting word must be a closed path at v1")
    for name in ("E1", "E2"):
        signed = sum(+1 if x == name else -1 if x == name + "'" else 0 for x in path.edges)
        if signed != 0:
            raise InputError(
                "twisting word is not homologically trivial: net %s count is %d"
                % (name, signed)
            )
    gens = []
    for i in range(1, 2 * n - 3):
        imgs = _identity_images(g)
        name = "E%d" % (i + 2)
        imgs[name] = g.path([name]).concat(path)
        gens.append(GraphMap(g, imgs, name="mu_%d" % i))
    imgs = _identity_images(g)
    for i in range(1, 2 * n - 3):
        name = "E%d" % (i + 2)
        imgs[name] = g.path([name]).concat(path.power(i))
    generic = GraphMap(g, imgs, name="type_c_generic")
    return TwistFamily("C", n, g, gens, generic, word=path)


# -- vertex-split surgery ---------------------------------------------------------


def split_twist_vertex(m, pivot, new_edge="E0", new_vertex="vsplit"):
    """Shift every twisting exponent on the pivot's axis by the pivot's.

    The axis vertex is split in two: the axis loop stays at the old vertex,
    every linear edge over that axis now terminates at the new vertex, and
    a new fixed edge joins the two.  Twisting suffixes become conjugates
    through the new edge with exponents d_k - d_pivot, so the pivot itself
    comes out fixed.  The result represents the same outer class as the
    input but deliberately carries an invariant forest (the pivot arc), the
    configuration the classifier refuses; callers collapse it or use the
    surgery to move a fixed direction onto the bottom stage.
    """
    filt = filtration(m)
    g = m.graph
    lin = {}
    pivot_st = None
    for s in filt:
        if s.kind == "NEG" and s.linear:
            lin[base_name(s.neg_edge)] = s
            if base_name(s.neg_edge) == base_name(pivot):
                pivot_st = s
    if pivot_st is None:
        raise InputError("pivot %r is not a linear edge" % pivot)
    axis = pivot_st.axis
    if len(axis.edges) != 1:
        raise InputError("the surgery needs a single-edge axis loop")
    axis_edge = axis.edges[0]
    v = g.init(axis_edge)
    movers = {
        e: s
        for e, s in lin.items()
        if s.axis.edges in (axis.edges, axis.reverse().edges) and g.term(s.neg_edge) == v
    }
    d2 = pivot_st.exponent
    if new_edge in g.edge_names or new_vertex in g.vertices:
        raise InputError("fresh edge and vertex names are taken")

    def new_ends(e):
        i, t = g.init(e), g.term(e)
        if e in movers:
            s = movers[e]
            if s.neg_edge == e:
                t = new_vertex
            else:
                i = new_vertex
        return i, t

    g2 = MarkedGraph(
        list(g.vertices) + [new_vertex],
        [(e,) + new_ends(e) for e in g.edge_names] + [(new_edge, new_vertex, v)],
    )

    def lift(edges):
        out = []
        cur = None
        for e in edges:
            if cur is not None and g2.init(e) != cur:
                out.append(new_edge if g2.init(e) == v else inverse(new_edge))
            out.append(e)
            cur = g2.term(e)
        return g2.tighten(out)

    def axis_power(p):
        return [axis_edge] * p if p >= 0 else [inverse(axis_edge)] * (-p)

    images = {new_edge: g2.path([new_edge])}
    for e in g.edge_names:
        if e in movers:
            s = movers[e]
            shift = s.exponent - d2
            if s.neg_edge == e:
                seq = [e, new_edge] + axis_power(shift) + [inverse(new_edge)]
            else:
                seq = [new_edge] + axis_power(-shift) + [inverse(new_edge), e]
            images[e] = g2.tighten(seq)
        else:
            images[e] = lift(m.edge_images[e].edges)
    return GraphMap(g2, images, name="split_%s" % (m.name or "map"))
