"""The stratum-order enumeration that the order search replaced, kept as the
test reference.

Every valid stratum order is listed depth-first in index order, up to a cap.
Each order is grouped on its own (``default_stage_grouping``), its grouping
tested for properness, and a proper one is then matched against the
maximal-rank shapes or audited stage by stage.  ``first_accepted`` walks the
orders to the first one accepted; it is the oracle for
``maxrank.valid_orders``, whose memoised search must find that same order.
"""

import itertools

from traintrack.disintegrate import disintegrate
from traintrack.maps import Filtration, direction_map, filtration
from traintrack.maxrank import (
    _axes_homologically_trivial,
    _linear_pair,
    _stage_delta,
    detect_fps,
)
from traintrack.nielsen import build_catalog
from traintrack.paths import base_name

CAP = 10000


def reference_orders(m, cap=CAP):
    """Valid stratum orders, construction order first, at most ``cap``."""
    filt = filtration(m)
    n = len(filt)
    sup = [{filt.level(x) for e in s.edges for x in m.edge_images[e].edges} for s in filt]

    def rec(prefix, placed):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for i in range(n):
            if i not in placed and all(j in placed or j == i for j in sup[i]):
                placed.add(i)
                prefix.append(i)
                yield from rec(prefix, placed)
                placed.discard(i)
                prefix.pop()

    return itertools.islice(rec([], set()), cap)


def ordered_filtration(m, order):
    """The filtration a valid stratum order of m lists."""
    filt = filtration(m)
    return Filtration(m.graph, [filt[i] for i in order])


def default_stage_grouping(m, filt=None):
    """Stage boundaries [l_0, l_1, ..., l_K = N] as prefix counts of
    ``filt`` (default m's filtration): l_0 ends the block of bottom strata
    that are components of their own prefix, and later boundaries are the
    prefixes with no valence-one vertex whose top stratum is irreducible."""
    if filt is None:
        filt = filtration(m)
    g = m.graph
    n = len(filt)
    k = 1
    verts = set(g.incident_vertices(filt[0].edges))
    for j in range(1, n):
        edges = filt[j].edges
        vs = g.incident_vertices(edges)
        if vs & verts or g.is_forest(edges):
            break
        verts |= vs
        k = j + 1
    bounds = [k]
    for j in range(k + 1, n + 1):
        if filt[j - 1].kind == "zero":
            continue
        deg = {}
        for e in filt.prefix_edges(j):
            for v in (g.init(e), g.term(e)):
                deg[v] = deg.get(v, 0) + 1
        if 1 not in deg.values():
            bounds.append(j)
    if bounds[-1] != n:
        bounds.append(n)
    return bounds


def grouping_is_proper(g, filt, grouping):
    """Between boundaries every irreducible prefix retracts to the floor."""
    for lo, hi in zip(grouping, grouping[1:]):
        floor = filt.prefix_edges(lo)
        for j in range(lo + 1, hi):
            if filt[j - 1].kind != "zero" and not g.is_forest(filt.prefix_edges(j), floor):
                return False
    return True


def _base_match(g, filt, grouping, mode, witnesses):
    """(description, stages consumed) of the bottom of the decomposition."""
    l0 = grouping[0]
    if mode == "ia":
        if len(grouping) < 2 or grouping[0] != 1 or grouping[1] != 2:
            return None
        s0, s1 = filt[0], filt[1]
        edges = filt.prefix_edges(2)
        if (s0.kind == "fixed" and s1.kind == "fixed"
                and len(g.components(edges)) == 1 and g.rank(edges) == 2):
            return ("A", "rank-two fixed subgraph"), 1
        return None
    if l0 == 1 and filt[0].kind == "EG" and g.rank(filt.prefix_edges(1)) == 2:
        return ("A", 1), 0
    if len(grouping) >= 2 and l0 == 1 and grouping[1] == 2:
        s0, s1 = filt[0], filt[1]
        if (s0.kind == "fixed" and len(s0.edges) == 1 and s1.kind == "NEG" and s1.linear
                and len(s1.axis.edges) == 1 and base_name(s1.axis.edges[0]) == s0.edges[0]):
            return ("A", 2), 1
    if len(grouping) >= 2 and l0 == 1:
        s0 = filt[0]
        w = witnesses.get((1, grouping[1]))
        if (s0.kind == "fixed" and len(s0.edges) == 1 and g.is_loop(s0.edges[0])
                and w is not None and w.kind == "partial"
                and g.rank(filt.prefix_edges(grouping[1])) == 3):
            return ("A", 3), 1
    return None


def match_structure(m, mode, filt, grouping):
    """(base, stage kinds) of one order's filtration and its proper
    grouping, or the reason it matches none."""
    g = m.graph
    witnesses = {(w.l, w.strata[-1]): w for w in detect_fps(m, filt)}
    base = _base_match(g, filt, grouping, mode, witnesses)
    if base is None:
        return "bottom of the filtration matches no base case"
    desc, consumed = base
    stages = []
    for lo, hi in zip(grouping[consumed:], grouping[consumed + 1:]):
        window = filt.strata[lo:hi]
        if _linear_pair(g, window, g.incident_vertices(filt.prefix_edges(lo))):
            if mode == "ia" and not _axes_homologically_trivial([s.axis for s in window]):
                return "linear pair with homologically nontrivial axis"
            stages.append(("B", 1))
            continue
        w = witnesses.get((lo, hi))
        if w is not None and w.kind == "full":
            if mode == "ia" and not _axes_homologically_trivial(w.alphas):
                return "FPS subgraph with homologically nontrivial axis"
            stages.append(("B", 2))
            continue
        return "stage matches neither a linear pair nor an FPS subgraph"
    return desc, stages


class AuditReference:
    """The stage audit of one order's own grouping, each prefix's rank
    disintegrated once."""

    def __init__(self, m):
        self.map = m
        self.catalog = build_catalog(m)
        self.dmap = direction_map(m)
        self.known = {}

    def rank(self, filt, j):
        while j > 0 and filt[j - 1].kind == "zero":
            j -= 1
        key = frozenset(filt.prefix_edges(j))
        if key not in self.known:
            self.known[key] = (
                disintegrate(self.map, self.catalog, sorted(key)).lattice.rank if key else 0
            )
        return self.known[key]

    def stages(self, filt, grouping):
        """Whether each stage of one order's filtration and its proper
        grouping passes."""
        m, g = self.map, self.map.graph
        witnesses = {(w.l, w.strata[-1]): w for w in detect_fps(m, filt)}
        oks = []
        for lo, hi in zip(grouping, grouping[1:]):
            window = filt.strata[lo:hi]
            floor_edges = filt.prefix_edges(lo)
            floor_verts = g.incident_vertices(floor_edges)
            delta = _stage_delta(m, self.dmap, floor_verts, [e for s in window for e in s.edges])
            delta_chi = g.euler_characteristic(floor_edges) - g.euler_characteristic(
                filt.prefix_edges(hi))
            delta_r = self.rank(filt, hi) - self.rank(filt, lo)
            w = witnesses.get((lo, hi))
            shaped = (
                w is not None and w.kind == "full" and delta == 0
                or w is not None and w.kind == "partial" and delta == 1
                or len(window) == 1 and window[0].kind == "NEG" and window[0].linear
                and delta == 1
                or delta == 0 and _linear_pair(g, window, floor_verts)
            )
            bound = 2 * delta_chi - delta
            oks.append(delta_r < bound or delta_r == bound and shaped)
        return oks


def first_accepted(m, accepts, cap=CAP):
    """({name: the first order with a proper grouping that
    ``accepts[name](filt, grouping)`` takes, or None}, whether the
    enumeration finished under the cap).  The walk stops once every name
    has its order."""
    first = dict.fromkeys(accepts)
    walked = 0
    for order in reference_orders(m, cap):
        walked += 1
        filt = ordered_filtration(m, order)
        grouping = default_stage_grouping(m, filt)
        if not grouping_is_proper(m.graph, filt, grouping):
            continue
        for name, accept in accepts.items():
            if first[name] is None and accept(filt, grouping):
                first[name] = order
        if None not in first.values():
            return first, True
    return first, walked < cap
