import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from traintrack.paths import MarkedGraph, Path, inverse, base_name
from traintrack import maps
from traintrack.maps import (
    Filtration,
    GraphMap,
    compose,
    transition_matrix,
    compute_filtration,
    filtration,
    restrict,
    direction_map,
    is_illegal_turn,
)
from traintrack.errors import (
    EndpointMismatch,
    InconsistentFiltration,
    MalformedPath,
    TrainTrackError,
)
from traintrack.ct import check_ct, vertex_period
from traintrack.maxrank import gen_type_c, gen_type_e, rank_audit
from traintrack.nielsen import _is_legal_turn
import samples
from oracles import (
    identity_map,
    illegal_turns,
    iterate,
    reference_classify_strata,
    reference_invariance_fault,
    turns,
)
from test_nielsen import (
    _corpus_map,
    arbitrary_roses,
    invariant_closure,
    linear_roses,
    reached_down_sets,
    restricted_afresh,
    triangular_roses,
    zero_strata_maps,
)


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


# --- oracle: apply by naive substitution + naive reduction ------------------


def naive_apply(m, edges):
    out = []
    for e in edges:
        im = m.edge_images[base_name(e)].edges
        out.extend(im if not e.endswith("'") else [inverse(x) for x in reversed(im)])
    changed = True
    out = list(out)
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] == inverse(out[i]):
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


@st.composite
def cascade_words(draw):
    letters = [x for n in ("A", "B", "C") for x in (n, n + "'")]
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=10)))


@given(cascade_words())
def test_apply_matches_substitution_oracle(word):
    m = samples.rose_cascade()
    p = m.graph.tighten(word, base="v")
    assert m.apply(p).edges == naive_apply(m, p.edges)


def test_apply_known_values():
    m = samples.rose_cascade()
    g = m.graph
    assert m.apply(g.path(["C"])).edges == ("C", "B")
    assert iterate(m, g.path(["C"]), 2).edges == ("C", "B", "B", "A")
    assert iterate(m, g.path(["C"]), 0).edges == ("C",)

    q = samples.qe_rose()
    h = q.graph
    assert q.apply(h.path(["E3", "E2'"])).edges == ("E3", "E1'", "E2'")
    f2e4 = iterate(q, h.path(["E4"]), 2)
    assert f2e4.edges == ("E4", "E3", "E3", "E2'", "E3", "E1", "E3", "E1'", "E2'")


def test_apply_trivial_path_moves_basepoint():
    m = samples.zero_stratum_map()
    t = m.graph.trivial_path("z1")
    assert m.apply(t).base == "a"


def test_graphmap_validation():
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    with pytest.raises(MalformedPath):
        GraphMap(g, {"A": g.path(["A"])})  # missing image
    with pytest.raises(MalformedPath):
        GraphMap(g, {"A": g.trivial_path("v"), "B": g.path(["B"])})
    # two-vertex graph: endpoint consistency of vertex images
    h = MarkedGraph(
        ["u", "w"], [("P", "u", "w"), ("Q", "u", "w"), ("L", "u", "u")]
    )
    with pytest.raises(EndpointMismatch):
        # P's image sends u to w but L's image fixes u
        GraphMap(h, {"P": h.path(["Q'"]), "Q": h.path(["P'"]), "L": h.path(["L"])})
    GraphMap(h, {"P": h.path(["Q"]), "Q": h.path(["P"]), "L": h.path(["L"])})


def test_graphmap_checks_each_image_once():
    # a raw sequence is checked by graph.path alone; a Path built around
    # the validating constructors gets one tightening pass
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    with pytest.raises(MalformedPath, match="backtracking"):
        GraphMap(g, {"A": ["A"], "B": ["B", "A", "A'"]})
    with pytest.raises(MalformedPath, match="image of 'B' is not tight"):
        GraphMap(g, {"A": ["A"], "B": Path(g, ("B", "A", "A'"))})
    with pytest.raises(MalformedPath, match="image of 'B' is trivial"):
        GraphMap(g, {"A": ["A"], "B": Path(g, (), base="v")})
    other = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    with pytest.raises(EndpointMismatch, match="wrong graph"):
        GraphMap(g, {"A": ["A"], "B": Path(other, ("B", "A", "A'"))})
    m = GraphMap(g, {"A": ["A"], "B": Path(g, ("B", "A"))})
    assert m.image("B'").edges == ("A'", "B'")


# --- the oracle iterate: the orbit extends the last iterate ---------------------


def assert_iterates_match(m, starts, k_max=8, max_len=3000):
    """iterate(p, k) equals k plain applications of f_#, k = 0..k_max; an
    exponentially growing orbit stops once an iterate is longer than
    ``max_len`` (f^8 of swap_rose's C has about 6 million edges)."""
    for p in starts:
        plain = p
        for k in range(k_max + 1):
            assert iterate(m, p, k) == plain, (p, k)
            if len(plain) > max_len:
                break
            plain = m.apply(plain)


def _edge_starts(m):
    # both orientations, so the orbit grows at the end and at the start
    return [m.graph.path([d]) for d in m.graph.directions()]


@settings(max_examples=60, deadline=None)
@given(triangular_roses())
def test_iterate_matches_plain_apply_random_roses(m):
    assert_iterates_match(m, _edge_starts(m))


@pytest.mark.parametrize("name", sorted(samples.SAMPLES))
def test_iterate_matches_plain_apply_samples(name):
    m = samples.SAMPLES[name]()
    assert_iterates_match(m, _edge_starts(m))


def test_iterate_seam_cancels():
    # f(C) = C.t with t = B' A and f_#(t) = A' B' A: the A of C B' A cancels
    # against the A' that starts f_#(t).
    g = MarkedGraph(["v"], [(n, "v", "v") for n in "ABC"])
    m = GraphMap(g, {"A": g.path(["A"]), "B": g.path(["B", "A"]),
                     "C": g.path(["C", "B'", "A"])})
    assert iterate(m, g.path(["C"]), 2).edges == ("C", "B'", "B'", "A")
    assert iterate(m, g.path(["C'"]), 2).edges == ("A'", "B", "B", "C'")
    assert_iterates_match(m, _edge_starts(m))


def test_iterate_to_trivial_path():
    # f(B) = B A and f_#(A) = A' B' cancel completely: f^2_#(B) is trivial.
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["A'", "B'"]), "B": g.path(["B", "A"])})
    for d in ("B", "B'"):
        for k in (2, 3):
            assert iterate(m, g.path([d]), k) == g.trivial_path("v")
    assert_iterates_match(m, _edge_starts(m))


def test_iterate_grows_again_after_a_seam_cancellation():
    # f(C) = C.t, t = B B A'; f_#(t) = A B A A B starts with the inverse of
    # t's last edge, so f^2(C) = C B B B A A B does not extend f(C).  The
    # plain step after it finds f^2(C) a prefix of f^3(C), and the orbit
    # grows in place again.  Starting at C' runs the same orbit reversed.
    g = MarkedGraph(["v"], [(n, "v", "v") for n in "ABC"])
    m = GraphMap(g, {"A": ["A"], "B": ["A", "B", "A"], "C": ["C", "B", "B", "A'"]})
    orbit = [iterate(m, g.path(["C"]), k).edges for k in range(5)]
    assert orbit[2] == ("C", "B", "B", "B", "A", "A", "B")
    assert orbit[2][:4] != orbit[1]
    assert all(orbit[k + 1][: len(orbit[k])] == orbit[k] for k in (0, 2, 3))
    assert iterate(m, g.path(["C'"]), 2).edges == ("B'", "A'", "A'", "B'", "B'", "B'", "C'")
    assert_iterates_match(m, _edge_starts(m), k_max=12)


class _PathWrites:
    """Counts the edges written into Path objects while it is active."""

    def __init__(self, monkeypatch):
        self.edges = 0
        init = Path.__init__

        def counting_init(path, graph, edges, base=None):
            init(path, graph, edges, base)
            self.edges += len(path.edges)

        monkeypatch.setattr(Path, "__init__", counting_init)


@pytest.mark.parametrize("name, edge", [
    ("exceptional_rose", "D"), ("qe_rose", "E4"), ("rose_cascade", "C"),
])
@pytest.mark.parametrize("k", [90, 180])
def test_iterate_writes_each_edge_a_bounded_number_of_times(monkeypatch, name, edge, k):
    # the orbit grows in place: at most 4 edges written per edge of f^k(p),
    # whichever end it grows at (an iterate copied per step writes O(k) each)
    m = samples.SAMPLES[name]()
    for d in (edge, edge + "'"):
        p = m.graph.path([d])
        with monkeypatch.context() as patch:
            writes = _PathWrites(patch)
            out = iterate(m, p, k)
        assert writes.edges <= 4 * len(out), (d, writes.edges, len(out))
        assert len(out) > k


def test_compose_and_iterate_agree():
    m = samples.qe_rose()
    g = m.graph
    mm = compose(m, m)
    for e in g.edge_names:
        assert mm.edge_images[e] == iterate(m, g.path([e]), 2)
    ident = identity_map(g)
    assert compose(m, ident).edges_equal(m)
    assert compose(ident, m).edges_equal(m)


# --- seam oracle: f_# against tightening the concatenated images ---------------


def tighten_images(m, p):
    """f_# by the validating kernel: every edge image concatenated, then
    tightened as one raw sequence."""
    word = [x for e in p.edges for x in m.image(e).edges]
    return m.graph.tighten(word, base=m.vertex_map[p.start])


@st.composite
def tight_walks(draw, g, start=None, max_size=12):
    """A random tight path: a walk that never turns back, possibly trivial
    when ``start`` is given."""
    if start is None:
        edges = [draw(st.sampled_from(g.directions()))]
    else:
        edges = []
    for _ in range(draw(st.integers(0, max_size))):
        at = g.term(edges[-1]) if edges else start
        nxt = [d for d in g.directions(at) if not edges or d != g.inverse_of[edges[-1]]]
        edges.append(draw(st.sampled_from(nxt)))
    return g.path(edges, base=start)


def assert_seam_matches_tighten(m, paths, composite=True):
    g = m.graph
    mm = compose(m, m) if composite else None
    for p in paths:
        fp = m.apply(p)
        assert fp == tighten_images(m, p), p
        if composite:
            assert mm.apply(p) == m.apply(fp), p
        for q in (fp, p.reverse(), p.reverse().subpath(0, len(p) // 2)):
            if q.start == p.end:
                assert p.concat(q) == g.tighten(p.edges + q.edges, base=p.start), (p, q)


def _seam_cases(data, m, n=6):
    g = m.graph
    walks = [data.draw(tight_walks(g)) for _ in range(n)]
    return _edge_starts(m) + walks


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_tightened_images_random_roses(data):
    m = data.draw(triangular_roses())
    assert_seam_matches_tighten(m, _seam_cases(data, m))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(sorted(samples.SAMPLES)))
def test_apply_matches_tightened_images_samples(data, name):
    m = samples.SAMPLES[name]()
    assert_seam_matches_tighten(m, _seam_cases(data, m))
    p = data.draw(tight_walks(m.graph))
    q = data.draw(tight_walks(m.graph, start=p.end))
    assert p.concat(q) == m.graph.tighten(p.edges + q.edges, base=p.start)


def test_apply_image_cancels_completely_into_the_previous_one():
    # f(C) = B' A' C swallows f(B) = B whole, then the A of f(A) = A.
    g = MarkedGraph(["v"], [(n, "v", "v") for n in "ABC"])
    m = GraphMap(g, {"A": g.path(["A"]), "B": g.path(["B"]),
                     "C": g.path(["B'", "A'", "C"])})
    assert m.apply(g.path(["A", "B", "C"])).edges == ("C",)
    assert m.apply(g.path(["C'", "B'", "A'"])).edges == ("C'",)
    assert m.apply(g.path(["A", "A", "B", "C"])).edges == ("A", "C")
    assert_seam_matches_tighten(m, _edge_starts(m) + [g.path(["A", "B", "C", "B"])])


def test_apply_to_trivial_path():
    # f(B) f(A) = B A . A' B' cancels to nothing: the result is the trivial
    # path at the image of the start vertex.
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["A'", "B'"]), "B": g.path(["B", "A"])})
    assert m.apply(g.path(["B", "A"])) == g.trivial_path("v")
    assert m.apply(g.path(["A'", "B'"])) == g.trivial_path("v")
    # f^2 sends A to the trivial path, so there is no composite to check
    assert_seam_matches_tighten(m, _edge_starts(m) + [g.path(["B", "A"])], composite=False)
    # on a two-vertex graph the trivial result sits at the image vertex
    h = MarkedGraph(["u", "w"], [("P", "u", "w"), ("Q", "u", "w"), ("L", "w", "w")])
    n = GraphMap(h, {"P": h.path(["L"]), "Q": h.path(["L"]), "L": h.path(["L"])})
    assert n.apply(h.path(["P", "Q'"])) == h.trivial_path("w")
    assert_seam_matches_tighten(n, _edge_starts(n) + [h.path(["P", "Q'", "P"])])


# --- transition matrices -----------------------------------------------------


def brute_crossings(m, e_row, e_col):
    return sum(1 for x in m.edge_images[e_col].edges if base_name(x) == e_row)


def test_transition_matrix_counts():
    m = samples.qe_rose()
    t = transition_matrix(m)
    names = m.graph.edge_names
    for i, r in enumerate(names):
        for j, c in enumerate(names):
            assert t[i][j] == brute_crossings(m, r, c)
    # E4 column crosses E3 twice and E2 once
    assert t[names.index("E3")][names.index("E4")] == 2
    assert t[names.index("E2")][names.index("E4")] == 1


def test_transition_matrix_of_composition_bounded_by_square():
    # cancellation can only lose crossings, never create them
    for factory in (samples.rose_cascade, samples.qe_rose, samples.zero_stratum_map):
        m = factory()
        t = transition_matrix(m)
        n = len(t)
        sq = [[sum(t[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        t2 = transition_matrix(compose(m, m))
        for i in range(n):
            for j in range(n):
                assert t2[i][j] <= sq[i][j]


def test_transition_matrix_of_composition_equals_square_when_legal():
    # all images of rose_cascade are legal paths, so no cancellation happens
    m = samples.rose_cascade()
    t = transition_matrix(m)
    n = len(t)
    sq = [[sum(t[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert transition_matrix(compose(m, m)) == sq


# --- filtration ---------------------------------------------------------------


def reachability_oracle(m):
    """{E: edges E reaches}, by Floyd-Warshall over "f(E) crosses X"."""
    names = list(m.graph.edge_names)
    n = len(names)
    idx = {e: i for i, e in enumerate(names)}
    reach = [[False] * n for _ in range(n)]
    for e in names:
        for x in m.edge_images[e].edges:
            reach[idx[e]][idx[base_name(x)]] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return {e: {x for x in names if reach[idx[e]][idx[x]]} for e in names}


def reachability_scc_oracle(m):
    """Partition edges into SCCs via reflexive-transitive closure."""
    reach = reachability_oracle(m)
    return {frozenset([e]) | {x for x in reach[e] if e in reach[x]} for e in reach}


def ordered_strata_oracle(m):
    """The edge sets of the maximal filtration, lowest first, by brute force:
    among the oracle components whose dependencies are placed, the one with
    the least edge goes first, and adjacent zero components (one edge that
    f(E) does not cross) merge."""
    names = list(m.graph.edge_names)
    reach = reachability_oracle(m)
    comps = reachability_scc_oracle(m)
    placed, strata, last_zero = set(), [], False
    while comps:
        ready = [c for c in comps if all(reach[e] <= placed | c for e in c)]
        c = min(ready, key=lambda c: min(map(names.index, c)))
        comps.remove(c)
        placed |= c
        zero = len(c) == 1 and not c <= reach[next(iter(c))]
        if zero and last_zero:
            strata[-1] |= c
        else:
            strata.append(set(c))
        last_zero = zero
    return strata


def _permutation_block(m, comp):
    """Each edge of comp crosses exactly one edge of comp once, and each is
    crossed once."""
    hits = [base_name(x) for e in comp for x in m.edge_images[e].edges if base_name(x) in comp]
    return sorted(hits) == sorted(comp)


@settings(max_examples=150, deadline=None)
@given(st.one_of(triangular_roses(), arbitrary_roses(), zero_strata_maps()))
@example(samples.rose_cascade())
@example(samples.qe_rose())
@example(samples.zero_stratum_map())
@example(samples.partial_fps_map())
@example(samples.full_fps_map())
def test_filtration_sccs_match_oracle(m):
    try:
        filt = compute_filtration(m)
    except InconsistentFiltration:
        # a cycle of edges permuted by f is one NEG component of several edges
        assert any(
            len(c) > 1 and _permutation_block(m, c) for c in reachability_scc_oracle(m)
        )
        return
    got = set()
    for s in filt:
        if s.kind == "zero":
            # merged zero strata may glue several oracle components
            for c in reachability_scc_oracle(m):
                if c <= set(s.edges):
                    got.add(c)
        else:
            got.add(frozenset(s.edges))
    assert got == reachability_scc_oracle(m)
    assert [set(s.edges) for s in filt] == ordered_strata_oracle(m)


def test_filtration_qe_rose():
    m = samples.qe_rose()
    filt = compute_filtration(m)
    assert [list(s.edges) for s in filt] == [["E1"], ["E2"], ["E3"], ["E4"]]
    assert [s.kind for s in filt] == ["fixed", "NEG", "NEG", "NEG"]
    assert filt[1].neg_edge == "E2"
    assert m.image_of["E2"][1:] == ("E1", "E1")
    assert filt.level("E4'") == 3
    assert filt.prefix_edges(2) == ["E1", "E2"]
    # a valid stratum order lists a filtration; positions are in that order
    reordered = Filtration(m.graph, [filt[i] for i in (0, 2, 1, 3)])
    assert reordered.prefix_edges(2) == ["E1", "E3"]
    assert reordered.level("E2'") == 2
    assert filt.height(m.graph.path(["E2", "E1"])) == 1


def test_filtration_respects_invariance():
    # every image of a stratum edge stays at or below its level
    for factory in samples.SAMPLES.values():
        m = factory()
        filt = compute_filtration(m)
        for s in filt:
            for e in s.edges:
                lvl = filt.level(e)
                for x in m.edge_images[e].edges:
                    assert filt.level(x) <= lvl


def test_filtration_zero_and_eg():
    m = samples.zero_stratum_map()
    filt = compute_filtration(m)
    assert [list(s.edges) for s in filt] == [["A"], ["Z"], ["S", "T"]]
    assert [s.kind for s in filt] == ["fixed", "zero", "EG"]


def test_orientation_flip_is_neg_without_normal_form():
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["A"]), "B": g.path(["B'"])})
    filt = compute_filtration(m)
    s = filt[1]
    assert s.kind == "NEG" and s.neg_edge is None
    assert s.linear is False


def test_strata_are_classified_once_and_never_change():
    m = samples.qe_rose()
    filt = filtration(m)
    classes = [(s.linear, s.axis, s.exponent) for s in filt]
    e1 = m.graph.path(["E1"])
    assert classes == [
        (None, None, None), (True, e1, 2), (True, e1, 1), (False, None, None)
    ]
    check_ct(m)
    rank_audit(m)
    assert filtration(m) is filt
    assert [(s.linear, s.axis, s.exponent) for s in filt] == classes
    with pytest.raises(AttributeError):
        filt[1].linear = False


def test_multi_edge_neg_stratum_rejected():
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["B"]), "B": g.path(["A"])})
    with pytest.raises(InconsistentFiltration):
        compute_filtration(m)


def test_restrict_to_prefix():
    m = samples.qe_rose()
    filt = compute_filtration(m)
    sub = restrict(m, filt.prefix_edges(2))
    assert sub.graph is m.graph
    assert list(sub) == list(filt)[:2]
    assert sub.prefix_edges(2) == ["E1", "E2"]
    with pytest.raises(InconsistentFiltration):
        restrict(m, ["E1", "E4"])  # image of E4 leaves the subset


def _edge_tuples(strata):
    return [s._replace(axis=s.axis and s.axis.edges) for s in strata]


def assert_restrict_inherits_the_filtration(m, down_sets):
    # the filtration restrict gives f|S, on f's graph, is the one computed
    # on f|S rebuilt as a map of its own: strata, kinds, NEG normal forms,
    # axes and exponents, paths compared as edge tuples
    for keep in down_sets:
        inherited = restrict(m, keep)
        assert inherited.graph is m.graph
        fresh = compute_filtration(restricted_afresh(m, keep))
        assert _edge_tuples(inherited) == _edge_tuples(fresh), sorted(keep)
        for s in inherited:
            assert s.axis is None or s.axis.graph is m.graph


@pytest.mark.parametrize(
    "name",
    sorted(samples.SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_restrict_to_every_edge_is_the_filtration(name):
    # the restriction lemma at S = G: f|G is f, stratum for stratum
    m = _corpus_map(name)
    assert list(restrict(m, m.graph.edge_names)) == list(filtration(m))


@pytest.mark.parametrize(
    "name",
    sorted(samples.SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_restrict_inherits_the_filtration(name):
    # prefixes along valid orders, and the invariant closure of every edge
    # pair, which reaches down-sets the depth-first orders come to late
    m = _corpus_map(name)
    pairs = itertools.combinations_with_replacement(m.graph.edge_names, 2)
    closures = sorted({invariant_closure(m, pair) for pair in pairs}, key=sorted)
    assert_restrict_inherits_the_filtration(m, reached_down_sets(m, 300) + closures)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(zero_strata_maps(), arbitrary_roses(), linear_roses(), triangular_roses()),
    st.data(),
)
def test_restrict_inherits_the_filtration_random_maps(m, data):
    # prefixes along valid orders, and invariant closures of drawn edge
    # sets, which may cut a zero stratum of f
    try:
        filtration(m)
    except InconsistentFiltration:
        return
    drawn = data.draw(st.lists(st.sets(st.sampled_from(m.graph.edge_names)), max_size=6))
    down_sets = reached_down_sets(m, 50) + [invariant_closure(m, es) for es in drawn if es]
    assert_restrict_inherits_the_filtration(m, down_sets)


def _restrict_fault(m, keep):
    try:
        restrict(m, keep)
    except InconsistentFiltration as exc:
        return str(exc)
    return None


def assert_restrict_faults_as_the_reference(m, edge_sets):
    # the closure test names the same edge, with the same message, as a
    # walk over every image edge; an invariant set raises nothing
    for keep in edge_sets:
        assert _restrict_fault(m, keep) == reference_invariance_fault(m, keep), sorted(keep)


@pytest.mark.parametrize(
    "name",
    sorted(samples.SAMPLES)
    + ["type_e_%d" % n for n in range(3, 7)]
    + ["type_c_%d" % n for n in range(4, 7)],
)
def test_restrict_faults_as_the_reference_on_every_edge_set(name):
    m = _corpus_map(name)
    names = m.graph.edge_names
    subsets = [
        c for r in range(1, len(names) + 1) for c in itertools.combinations(names, r)
    ]
    assert_restrict_faults_as_the_reference(m, subsets)
    # orientations and names that are no edge of the graph are read as before
    assert_restrict_faults_as_the_reference(
        m, [[inverse(e) for e in names[:2]], list(names[1:]) + ["X"]]
    )


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(zero_strata_maps(), arbitrary_roses(), linear_roses(), triangular_roses()),
    st.data(),
)
def test_restrict_faults_as_the_reference_random_maps(m, data):
    try:
        filtration(m)
    except InconsistentFiltration:
        return
    letters = list(m.graph.edge_names) + [inverse(e) for e in m.graph.edge_names]
    drawn = data.draw(st.lists(st.sets(st.sampled_from(letters), min_size=1), max_size=8))
    assert_restrict_faults_as_the_reference(m, drawn)


class _ReadCounter(dict):
    """A dict that records every key read by subscription."""

    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


def test_restrict_reads_no_image_edge_of_an_invariant_set():
    # invariance is read off the cached dependency closure; the images are
    # walked only to name the edge of a set that is not invariant
    m = gen_type_e(8).generic
    filt = filtration(m)
    reads = []
    m.image_of = _ReadCounter(m.image_of, reads)
    m.edge_images = _ReadCounter(m.edge_images, reads)
    for j in range(1, len(filt) + 1):
        assert list(restrict(m, filt.prefix_edges(j))) == list(filt)[:j]
    assert reads == []
    with pytest.raises(InconsistentFiltration, match="image of 'E3' leaves it"):
        restrict(m, ["E3"])
    assert reads


# --- single-edge strata against the block reference ------------------------------


def _strata_outcome(classify, m, components):
    try:
        return classify(m, components)
    except TrainTrackError as exc:
        return type(exc), str(exc)


def assert_strata_as_the_block_reference(m):
    """classify_strata on m's ordered components equals the reference that
    builds a transition block for each; returns the strata."""
    seen = []
    real = maps.classify_strata

    def spy(m, components):
        seen.append(list(components))
        return real(m, components)

    with mock.patch.object(maps, "classify_strata", spy):
        try:
            compute_filtration(m)
        except InconsistentFiltration:
            pass
    (components,) = seen
    got = _strata_outcome(real, m, components)
    assert got == _strata_outcome(reference_classify_strata, m, components)
    return got


def _eg_single_edge_map():
    # E -> E A E crosses E twice: a 1x1 block (2), an EG stratum of one edge
    g = MarkedGraph(["v"], [("A", "v", "v"), ("E", "v", "v")])
    return GraphMap(g, {"A": g.path(["A"]), "E": g.path(["E", "A", "E"])})


def _adjacent_zero_map():
    # Z1 -> A and Z2 -> B cross nothing of their own: two zero components,
    # placed next to each other and merged into one zero stratum
    g = MarkedGraph(["v", "w"], [("A", "v", "v"), ("B", "v", "v"),
                                 ("Z1", "v", "w"), ("Z2", "v", "w")])
    return GraphMap(g, {"A": g.path(["A", "B"]), "B": g.path(["A"]),
                        "Z1": g.path(["A"]), "Z2": g.path(["B"])})


def test_eg_single_edge_is_eg_as_in_the_block_reference():
    strata = assert_strata_as_the_block_reference(_eg_single_edge_map())
    assert [(s.edges, s.kind) for s in strata] == [(("A",), "fixed"), (("E",), "EG")]


def test_adjacent_zero_strata_merge_as_in_the_block_reference():
    strata = assert_strata_as_the_block_reference(_adjacent_zero_map())
    assert [(s.edges, s.kind) for s in strata] == [(("A", "B"), "EG"), (("Z1", "Z2"), "zero")]


@pytest.mark.parametrize(
    "name",
    sorted(samples.SAMPLES)
    + ["ladder_25", "ladder_100"]
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_strata_as_the_block_reference_corpus_maps(name):
    assert_strata_as_the_block_reference(_corpus_map(name))


@settings(max_examples=80, deadline=None)
@given(st.one_of(arbitrary_roses(), linear_roses(), triangular_roses(), zero_strata_maps()))
def test_strata_as_the_block_reference_random_maps(m):
    assert_strata_as_the_block_reference(m)


# --- directions and turns ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.one_of(zero_strata_maps(), arbitrary_roses(), linear_roses(), triangular_roses()))
@example(samples.suffix_rose())
@example(gen_type_e(5).generic)
@example(gen_type_c(5).generic)
def test_a_neg_stratum_is_linear_exactly_when_its_suffix_is_nielsen(m):
    # linearity is decided on the root w of u = w^d alone
    try:
        filt = filtration(m)
    except InconsistentFiltration:
        return
    for s in filt:
        if s.kind == "NEG" and s.neg_edge is not None:
            u = m.graph.path(m.image_of[s.neg_edge][1:])
            assert s.linear == (m.apply(u) == u), s
            if s.linear:
                assert s.axis.power(s.exponent) == u


def test_direction_map_swap_rose():
    m = samples.swap_rose()
    dm = direction_map(m)
    assert all(dm.is_fixed(d) for d in ("A'", "B'", "C'"))
    assert dm.orbit_period("B") == dm.orbit_period("C") == (True, 2)
    assert dm.orbit_period("A") == (False, 0)
    per = dict(dm.periodic_directions("v"))
    assert per == {"A'": 1, "B'": 1, "C'": 1, "B": 2, "C": 2}


def test_illegal_turns_qe_rose():
    m = samples.qe_rose()
    ill = illegal_turns(m)
    # E2' and E3' both eventually point along E1'
    assert frozenset(("E2'", "E3'")) in ill
    # degenerate turns are always illegal
    assert frozenset(("E1",)) in ill
    # a fixed pair is legal
    assert frozenset(("E1", "E2")) not in ill
    assert is_legal_path(m, m.graph.path(["E2", "E1"]))
    assert not is_legal_path(m, m.graph.path(["E3", "E2'"]))
    assert turns_crossed(m.graph, m.graph.path(["E3", "E2'"])) == [
        frozenset(("E3'", "E2'"))
    ]


def _illegal_by_square_rule(m, d1, d2):
    # the earlier bound: |D|^2 + 1 Df-steps on the pair
    dm = direction_map(m)
    a, b = d1, d2
    for _ in range(len(m.graph.directions()) ** 2 + 1):
        if a == b:
            return True
        a, b = dm.map[a], dm.map[b]
    return False


def assert_illegal_turns_match_square_rule(m):
    for t in turns(m.graph):
        pair = tuple(t)
        if len(pair) == 2:
            assert is_illegal_turn(m, *pair) == _illegal_by_square_rule(m, *pair), pair


@settings(max_examples=80, deadline=None)
@given(triangular_roses())
def test_illegal_turn_bound_random_roses(m):
    assert_illegal_turns_match_square_rule(m)


TURN_MAPS = dict(
    list(samples.SAMPLES.items())
    + [("type_e_%d" % n, lambda n=n: gen_type_e(n).generic) for n in range(3, 7)]
    + [("type_c_%d" % n, lambda n=n: gen_type_c(n).generic) for n in range(4, 7)]
)


@pytest.mark.parametrize("name", sorted(TURN_MAPS))
def test_illegal_turn_bound_corpus_maps(name):
    assert_illegal_turns_match_square_rule(TURN_MAPS[name]())


@pytest.mark.parametrize("name", sorted(TURN_MAPS))
def test_lazy_legality_matches_the_illegal_turn_set(name):
    # complete_split decides a turn when it first tries a cut there; both
    # orientations of every turn agree with the all-turns set
    m = TURN_MAPS[name]()
    ill = illegal_turns(m)
    for t in turns(m.graph):
        a, b = tuple(t) * (3 - len(t))
        assert _is_legal_turn(m, a, b) == _is_legal_turn(m, b, a) == (t not in ill), t


def test_illegal_turn_merging_at_the_longest_pre_period():
    # Df: A' -> B -> B' -> A -> A, so A' and B' merge after |D| - 1 = 3
    # steps, the most the bound allows
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["A", "B'"]), "B": g.path(["B'", "A'"])})
    dm = direction_map(m)
    assert [dm.map[d] for d in ("A'", "B", "B'", "A")] == ["B", "B'", "A", "A"]
    a, b, steps = "A'", "B'", 0
    while a != b:
        a, b, steps = dm.map[a], dm.map[b], steps + 1
    assert steps == len(g.directions()) - 1
    assert is_illegal_turn(m, "A'", "B'")


def test_illegal_turn_of_zero_stratum_map_is_hidden():
    # the EG stratum needs an illegal turn, but no image may take it
    m = samples.zero_stratum_map()
    ill = illegal_turns(m)
    assert frozenset(("S'", "T'")) in ill
    for e in m.graph.edge_names:
        for t in turns_crossed(m.graph, m.edge_images[e]):
            assert t not in ill


def test_periodic_vertices():
    m = samples.zero_stratum_map()
    periods = {v: vertex_period(m, v) for v in m.graph.vertices}
    assert {v: k for v, k in periods.items() if k >= 1} == {"a": 1}
    assert [v for v in m.graph.vertices if m.vertex_map[v] == v] == ["a"]
