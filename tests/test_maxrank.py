"""Tests for the rank audit, FPS detection, maximal-rank classification,
the two standard twist families and the vertex-split surgery."""

import functools
import importlib
import itertools
import json
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from traintrack.cli import parse_document
from traintrack.ct import check_ct
from traintrack.disintegrate import disintegrate
from traintrack.errors import (
    InconsistentFiltration,
    InputError,
    InvariantForestError,
    TrainTrackError,
)
from traintrack.freegroup import (
    is_IA,
    pi1_basis,
    pi1_images,
    spanning_tree,
)
from traintrack import nielsen
import traintrack.maps as maps_module
from traintrack.maps import Filtration, GraphMap, compose, filtration
import traintrack.maxrank as maxrank_module
from traintrack.maxrank import (
    _OrderSearch,
    _linear_pair,
    _structure_stage,
    classify_max_rank,
    detect_fps,
    find_invariant_forest,
    gen_type_c,
    gen_type_e,
    rank_audit,
    split_twist_vertex,
    stage_ranks,
    valid_orders,
)
from traintrack.paths import MarkedGraph, base_name
from samples import (
    SAMPLES,
    exceptional_rose,
    full_fps_map,
    partial_fps_map,
    qe_rose,
    rose_cascade,
    suffix_rose,
    swap_rose,
    zero_stratum_map,
)
from oracles import inner_twist_pair, map_is_pi1_surjective
from test_cli import SHUFFLES, _document, _shuffled_edges
from test_nielsen import linear_roses, restricted_afresh, triangular_roses, zero_strata_maps
from order_reference import (
    AuditReference,
    default_stage_grouping,
    first_accepted,
    grouping_is_proper,
    match_structure,
    ordered_filtration,
    reference_orders,
)

GOLDEN_DOCS = os.path.join(os.path.dirname(__file__), "golden", "docs")
# the package exports a function of the same name
disintegrate_module = importlib.import_module("traintrack.disintegrate")


def _forest_map():
    # the arc X is fixed, so {X} is a nontrivial invariant forest
    g = MarkedGraph(["a", "b"], [("A", "a", "a"), ("X", "a", "b"), ("B", "b", "b")])
    return GraphMap(
        g,
        {"A": g.path(["A"]), "X": g.path(["X"]), "B": g.path(["X'", "A", "X", "B"])},
    )


def _interleaved_pairs():
    # type E shape for n = 4, but with the construction order of the two
    # hanging pairs interleaved: E3, E5, E4, E6.  The default grouping then
    # has a stage whose intermediate prefixes do not retract to its floor,
    # so exhibiting the decomposition requires reordering strata.
    g = MarkedGraph(
        ["v1", "v2", "v3"],
        [
            ("E1", "v1", "v1"),
            ("E2", "v1", "v1"),
            ("E3", "v2", "v1"),
            ("E5", "v3", "v1"),
            ("E4", "v2", "v1"),
            ("E6", "v3", "v1"),
        ],
    )
    imgs = {"E1": ["E1"], "E2": ["E2", "E1"]}
    for j, name in enumerate(("E3", "E5", "E4", "E6"), start=2):
        imgs[name] = [name] + ["E1"] * j
    return GraphMap(g, {k: g.path(v) for k, v in imgs.items()}, name="interleaved")


# -- invariant forests -----------------------------------------------------------


def test_samples_have_no_invariant_forest():
    for make in (rose_cascade, qe_rose, partial_fps_map, full_fps_map):
        assert find_invariant_forest(make()) is None


def test_fixed_arc_is_an_invariant_forest():
    assert find_invariant_forest(_forest_map()) == ("X",)


def test_classify_refuses_invariant_forest():
    with pytest.raises(InvariantForestError, match="X"):
        classify_max_rank(_forest_map())


# -- stratum orders --------------------------------------------------------------


def _accept_all(filt, grouping):
    return None


def test_valid_orders_identity_first():
    # with a check that takes every stage, the search lists the orders whose
    # grouping is proper: E2 and E3 both depend only on E1, E4 on everything
    # below
    orders = [order for order, _, _ in valid_orders(qe_rose(), _accept_all)]
    assert orders == [(0, 1, 2, 3), (0, 2, 1, 3)]


def pruned_to(g, sub_edges, base_edges):
    # the reference: prune hanging edges (a valence-one vertex off the
    # base) one at a time, restarting after each, and compare with the base
    cur = {base_name(e) for e in sub_edges}
    base = {base_name(e) for e in base_edges}
    base_verts = g.incident_vertices(base)
    changed = True
    while changed:
        changed = False
        deg = {}
        for e in cur:
            deg[g.init(e)] = deg.get(g.init(e), 0) + 1
            deg[g.term(e)] = deg.get(g.term(e), 0) + 1
        for e in sorted(cur, key=g.edge_index):
            if e in base:
                continue
            if (deg[g.init(e)] == 1 and g.init(e) not in base_verts) or (
                deg[g.term(e)] == 1 and g.term(e) not in base_verts
            ):
                cur.discard(e)
                changed = True
                break
    return cur == base


@st.composite
def graphs_with_two_edge_sets(draw):
    # loops and multi-edges allowed; the base may be empty or leave the subgraph
    nv = draw(st.integers(min_value=1, max_value=4))
    ends = draw(st.lists(
        st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), min_size=1, max_size=8
    ))
    used = sorted({v for pair in ends for v in pair})
    g = MarkedGraph(["v%d" % i for i in used],
                    [("E%d" % k, "v%d" % a, "v%d" % b) for k, (a, b) in enumerate(ends)],
                    intermediate=True)
    names = list(g.edge_names)
    sub = draw(st.sets(st.sampled_from(names)))
    inside = draw(st.integers(0, 3)) > 0  # mostly a base inside the subgraph
    base = draw(st.sets(st.sampled_from(sorted(sub) if inside and sub else names)))
    return g, sorted(sub), sorted(base)


@settings(max_examples=200, deadline=None)
@given(graphs_with_two_edge_sets())
def test_retraction_tree_criterion_is_the_pruning_loop(case):
    g, sub, base = case
    assert (set(base) <= set(sub) and g.is_forest(sub, base)) == pruned_to(g, sub, base)


def test_retraction_tree_criterion_on_every_pair_of_edge_sets():
    # a loop, a multi-edge and a pendant edge; all 4,096 (subgraph, base) pairs
    g = MarkedGraph(["a", "b", "c", "d"], [("L", "a", "a"), ("X", "a", "b"), ("Y", "b", "c"),
                                           ("W", "b", "c"), ("Z", "c", "a"), ("T", "c", "d")],
                    intermediate=True)
    subsets = [
        [e for e, keep in zip(g.edge_names, bits) if keep]
        for bits in itertools.product((0, 1), repeat=len(g.edge_names))
    ]
    for sub in subsets:
        for base in subsets:
            retracts = set(base) <= set(sub) and g.is_forest(sub, base)
            assert retracts == pruned_to(g, sub, base), (sub, base)


# -- rank sequences --------------------------------------------------------------


def test_stage_ranks_of_samples():
    assert stage_ranks(rose_cascade()) == [0, 0, 1, 1]
    assert stage_ranks(qe_rose()) == [0, 0, 1, 2, 1]
    assert stage_ranks(exceptional_rose()) == [0, 0, 1, 2, 2]
    assert stage_ranks(partial_fps_map()) == [0, 0, 1, 2, 3]
    assert stage_ranks(full_fps_map()) == [0, 0, 1, 2, 3, 4, 5]


def _stage_ranks_by_own_catalogs(m, order):
    # the per-prefix rule: every prefix restricted afresh, with a filtration
    # computed on it, and disintegrated with its own catalog
    filt = filtration(m)
    ranks = [0]
    for j in range(1, len(order) + 1):
        jj = j
        while jj > 0 and filt[order[jj - 1]].kind == "zero":
            jj -= 1
        if jj == 0:
            ranks.append(0)
        elif jj < j:
            ranks.append(ranks[jj])
        else:
            sub = restricted_afresh(m, [e for i in order[:j] for e in filt[i].edges])
            ranks.append(disintegrate(sub).lattice.rank)
    return ranks


RANK_MAPS = dict(
    list(SAMPLES.items())
    + [("type_e_%d" % n, lambda n=n: gen_type_e(n).generic) for n in range(3, 9)]
    + [("type_c_%d" % n, lambda n=n: gen_type_c(n).generic) for n in range(4, 8)]
)


@pytest.mark.parametrize("name", sorted(RANK_MAPS))
def test_stage_ranks_equal_the_per_prefix_rule(name):
    for order in reference_orders(RANK_MAPS[name](), 4):
        expected = _stage_ranks_by_own_catalogs(RANK_MAPS[name](), order)
        m = RANK_MAPS[name]()
        assert stage_ranks(m, ordered_filtration(m, order)) == expected, order


def _ranks_or_error(rule, m, order):
    try:
        return rule(m, order)
    except TrainTrackError as exc:
        return type(exc)


def _stage_ranks_in_order(m, order):
    return stage_ranks(m, ordered_filtration(m, order))


@settings(max_examples=80, deadline=None)
@given(zero_strata_maps())
def test_stage_ranks_equal_the_per_prefix_rule_zero_strata(m):
    # where a prefix merges zero strata of f, f's splittings may cut a
    # connecting run that the prefix's own keeps whole; the ranks stay those
    # of the per-prefix rule, and where one rule raises, so does the other
    try:
        orders = list(reference_orders(m, 6))
    except InconsistentFiltration:
        return
    for order in orders:
        expected = _ranks_or_error(_stage_ranks_by_own_catalogs, m, order)
        got = _ranks_or_error(_stage_ranks_in_order, m, order)
        assert got == expected or isinstance(got, type) and isinstance(expected, type), order


@pytest.mark.xfail(
    strict=True,
    reason="on a map that is not completely split, the full map's splittings "
    "refuse a prefix before the per-prefix rule meets its own error",
)
def test_a_map_not_completely_split_fails_the_audit_the_same_way():
    # Z1 and Z2 are zero strata of f apart by the fixed B, one stratum of the
    # prefix without B; f(T1) turns from Z2' into Z1 illegally, and the zero
    # stratum {T2} tops f
    g = MarkedGraph(
        ["a", "z1", "z2"],
        [("A", "a", "a"), ("Z1", "a", "z1"), ("B", "a", "a"), ("Z2", "a", "z2"),
         ("T1", "z1", "z2"), ("T2", "z1", "z1")],
    )
    images = {"A": "A", "Z1": "A'", "B": "B", "Z2": "A'",
              "T1": "Z1 T1 Z2' Z1 T1 Z2' A", "T2": "Z1 T1 Z2'"}
    m = GraphMap(g, {e: g.path(w.split()) for e, w in images.items()})
    order = (0, 1, 3, 4, 5, 2)
    expected = _ranks_or_error(_stage_ranks_by_own_catalogs, m, order)
    assert expected is InconsistentFiltration
    assert _ranks_or_error(_stage_ranks_in_order, m, order) is expected


def test_rank_audit_searches_one_catalog(monkeypatch):
    calls = []
    search = nielsen._search_fixed_paths

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(nielsen, "_search_fixed_paths", counted)
    # type E's images split in closed form: no prefix reads the catalog
    m = gen_type_e(5).generic
    audit = rank_audit(m)
    assert len(audit.ranks) == len(filtration(m)) + 1
    assert calls == []
    # rose_cascade's C -> C B needs the search: one, for every prefix
    m = rose_cascade()
    audit = rank_audit(m)
    assert len(audit.ranks) == len(filtration(m)) + 1
    assert calls == [m]


def test_rank_audit_splits_each_edge_image_once(monkeypatch):
    # every prefix inherits the map's filtration and reads its splittings
    splits, filtrations = [], []
    split, compute = nielsen.qe_split, maps_module.compute_filtration

    def counted_split(mk, path, *args, **kwargs):
        splits.append((mk, path.edges))
        return split(mk, path, *args, **kwargs)

    def counted_filtration(mk):
        filtrations.append(mk)
        return compute(mk)

    monkeypatch.setattr(nielsen, "qe_split", counted_split)
    monkeypatch.setattr(maps_module, "compute_filtration", counted_filtration)
    m = gen_type_e(6).generic
    audit = rank_audit(m)
    assert len(audit.ranks) == len(filtration(m)) + 1
    assert filtrations == [m]
    assert all(mk is m for mk, _ in splits)
    moved = [e for e in m.graph.edge_names if m.image(e).edges != (e,)]
    assert sorted(p for _, p in splits) == sorted(m.image(e).edges for e in moved)


@pytest.mark.parametrize("doc", ["type_e_6", "type_c_5"])
def test_rank_audit_builds_no_graph_and_restricts_once_per_prefix(doc, monkeypatch):
    # every prefix is disintegrated on the parsed map's own graph: no
    # MarkedGraph or GraphMap is built, and restrict runs once per prefix,
    # the search's stage boundaries first
    with open(os.path.join(GOLDEN_DOCS, doc + ".json")) as fh:
        m = parse_document(fh.read()).graph_map
    built, restricted = [], []
    for cls in (MarkedGraph, GraphMap):
        def counted_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built.append(_cls.__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)
    restrict = disintegrate_module.restrict

    def counted_restrict(mk, edges):
        restricted.append(frozenset(edges))
        return restrict(mk, edges)

    monkeypatch.setattr(disintegrate_module, "restrict", counted_restrict)
    rank_audit(m)
    assert built == []
    filt = filtration(m)
    prefixes = [
        frozenset(filt.prefix_edges(j))
        for j in range(1, len(filt) + 1)
        if filt[j - 1].kind != "zero"
    ]
    assert sorted(restricted, key=len) == prefixes


@pytest.mark.parametrize("name", sorted(RANK_MAPS))
def test_rank_audit_disintegrates_each_prefix_once(name, monkeypatch):
    # the search's stage checks and the rank sequence share one rank per
    # prefix edge set, so an audit disintegrates no more prefixes than the
    # rank sequence of construction order has
    calls = []
    run = maxrank_module.disintegrate

    def counted(mk, catalog=None, edges=None):
        calls.append(frozenset(edges))
        return run(mk, catalog, edges)

    monkeypatch.setattr(maxrank_module, "disintegrate", counted)
    m = RANK_MAPS[name]()
    rank_audit(m)
    assert len(set(calls)) == len(calls)
    assert len(calls) <= sum(s.kind != "zero" for s in filtration(m))


def test_stage_ranks_skip_zero_topped_prefixes():
    # the prefix {A, Z} ends in a zero stratum; its rank is the rank below
    assert stage_ranks(zero_stratum_map()) == [0, 0, 0, 1]


def test_default_grouping_of_samples():
    # the search groups construction order as the reference does
    for make, grouping in (
        (rose_cascade, [1, 2, 3]),
        (qe_rose, [1, 2, 3, 4]),
        (partial_fps_map, [1, 4]),
        (full_fps_map, [1, 2, 6]),
        (zero_stratum_map, [1, 3]),
    ):
        assert rank_audit(make()).grouping == default_stage_grouping(make()) == grouping


def test_grouping_boundaries_have_no_valence_one_vertices():
    for make in (qe_rose, partial_fps_map, full_fps_map):
        m = make()
        filt = filtration(m)
        for b in rank_audit(m).grouping[:-1]:
            edges = filt.prefix_edges(b)
            verts = m.graph.incident_vertices(edges)
            deg = {v: 0 for v in verts}
            for e in edges:
                deg[m.graph.init(e)] += 1
                deg[m.graph.term(e)] += 1
            assert all(d != 1 for d in deg.values())


def test_linear_pair_hangs_from_a_new_common_vertex():
    # type E n=3: E3 and E4 hang from v2, off the floor {E1, E2} at v1
    m = gen_type_e(3).generic
    g, filt = m.graph, filtration(m)
    floor_verts = g.incident_vertices(filt.prefix_edges(2))
    assert _linear_pair(g, filt.strata[2:4], floor_verts)
    assert not _linear_pair(g, filt.strata[2:4], floor_verts | {"v2"})
    assert not _linear_pair(g, filt.strata[1:3], floor_verts)  # E2 and E3 part
    assert not _linear_pair(g, filt.strata[3:4], floor_verts)
    assert not _linear_pair(g, filt.strata[0:2], set())  # E1 is fixed


# -- the order search against the order enumeration -------------------------


def _shuffled_map(name, seed):
    # the map of a corpus document whose edge list is shuffled
    doc = _document(name)
    return parse_document(json.dumps(_shuffled_edges(doc, seed))).graph_map


def _mode(name):
    return "ia" if name.startswith("type_c") else "general"


def _reference_accepts(m, mode):
    # per order with a proper grouping: its audit passes, it is there, its
    # structure matches
    ref = AuditReference(m)
    return {
        "passes": lambda filt, grouping: all(ref.stages(filt, grouping)),
        "proper": lambda filt, grouping: True,
        "matches": lambda filt, grouping: not isinstance(
            match_structure(m, mode, filt, grouping), str),
    }


def assert_search_agrees_with_the_enumeration(m, mode):
    # the first order the search accepts is the enumeration's first, for the
    # audit and for the structure match, and one is None exactly when the
    # other is; where the enumeration stops at its cap before finding one,
    # it takes the search's order
    accepts = _reference_accepts(m, mode)
    first, finished = first_accepted(m, accepts)
    audit = rank_audit(m)
    check = functools.partial(_structure_stage, m, mode, len(filtration(m)))
    found = next(valid_orders(m, check), None)
    got = {"passes": audit.order if audit.passed else None, "matches": found and found[0]}
    if not audit.passed:
        got["proper"] = audit.order
    for name, order in got.items():
        if finished or first[name] is not None:
            assert order == first[name], name
        elif order is not None:
            filt = ordered_filtration(m, order)
            grouping = default_stage_grouping(m, filt)
            assert grouping_is_proper(m.graph, filt, grouping), name
            assert accepts[name](filt, grouping), name
    return audit, found


@pytest.mark.parametrize("name", sorted(RANK_MAPS))
def test_the_search_finds_the_enumerations_order_corpus_maps(name):
    m = RANK_MAPS[name]()
    audit, found = assert_search_agrees_with_the_enumeration(m, _mode(name))
    if name != "zero_stratum_map":
        assert audit.passed
    # an unshuffled document keeps its construction order
    assert audit.order == tuple(range(len(filtration(m))))


@pytest.mark.parametrize(
    "name, seed", [pytest.param(n, s, id="%s-seed%d" % (n, s)) for n, s in SHUFFLES]
)
def test_the_search_finds_the_enumerations_order_shuffled(name, seed):
    m = _shuffled_map(name, seed)
    audit, found = assert_search_agrees_with_the_enumeration(m, _mode(name))
    assert audit.passed and found is not None
    assert classify_max_rank(m, _mode(name)).order == found[0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(linear_roses(), triangular_roses(), zero_strata_maps()))
def test_the_search_finds_the_enumerations_order_random_maps(m):
    # stated precondition: m has a maximal filtration and every prefix of
    # every valid order disintegrates
    try:
        for order in reference_orders(m):
            stage_ranks(m, ordered_filtration(m, order))
    except TrainTrackError:
        assume(False)
    assert_search_agrees_with_the_enumeration(m, "general")


@pytest.mark.parametrize("name, seed", [("type_e_8", 1), ("type_e_8", 2), ("type_c_7", 2)])
def test_the_search_expands_no_state_twice(name, seed, monkeypatch):
    expanded = []
    expand = _OrderSearch.expand

    def counted(self, *state):
        expanded.append((self, state))
        return expand(self, *state)

    monkeypatch.setattr(_OrderSearch, "expand", counted)
    m = _shuffled_map(name, seed)
    assert rank_audit(m).passed
    assert classify_max_rank(m, _mode(name)).ok
    assert len(set(expanded)) == len(expanded)


# -- the audit -------------------------------------------------------------------


def test_audit_qe_rose():
    a = rank_audit(qe_rose())
    assert a.ranks == [0, 0, 1, 2, 1]
    assert a.grouping == [1, 2, 3, 4]
    assert [s.case for s in a.stages] == ["c", "c", None]
    assert [s.equality for s in a.stages] == [True, True, False]
    assert a.stages[2].delta_r == -1
    assert a.passed


def test_audit_partial_fps():
    a = rank_audit(partial_fps_map())
    assert a.grouping == [1, 4]
    (stage,) = a.stages
    assert (stage.delta_r, stage.delta_chi, stage.delta) == (3, 2, 1)
    assert stage.equality and stage.case == "b"
    assert stage.witness is not None and stage.witness.kind == "partial"
    assert a.passed


def test_audit_full_fps():
    a = rank_audit(full_fps_map())
    assert a.grouping == [1, 2, 6]
    assert [s.case for s in a.stages] == ["c", "a"]
    top = a.stages[1]
    assert (top.delta_r, top.delta_chi, top.delta) == (4, 2, 0)
    assert top.witness.kind == "full"
    assert a.passed


def test_audit_type_families():
    a = rank_audit(gen_type_e(3).generic)
    assert a.ranks == [0, 0, 1, 2, 3]
    assert [s.case for s in a.stages] == ["c", "d"]
    assert a.passed
    a = rank_audit(gen_type_c(4).generic)
    assert a.ranks == [0, 0, 0, 1, 2, 3, 4]
    assert a.grouping == [1, 2, 4, 6]
    # the second fixed petal adds euler characteristic but no rank
    assert [s.case for s in a.stages] == [None, "d", "d"]
    assert [s.equality for s in a.stages] == [False, True, True]
    assert a.passed


def test_audit_passes_on_homotopy_equivalence_samples():
    makers = (
        rose_cascade,
        qe_rose,
        exceptional_rose,
        suffix_rose,
        swap_rose,
        partial_fps_map,
        full_fps_map,
    )
    for make in makers:
        assert rank_audit(make()).passed, make.__name__
    f1, f2 = inner_twist_pair()
    assert rank_audit(f1).passed and rank_audit(f2).passed


def test_audit_flags_equality_without_shape():
    # the zero-stratum sample attains the bound without any of the four
    # shapes; it is exactly the sample that is not a homotopy equivalence
    a = rank_audit(zero_stratum_map())
    assert not a.passed
    (stage,) = a.stages
    assert stage.equality and stage.case is None and not stage.ok
    assert any("VIOLATION" in ln for ln in a.lines())


def test_audit_reports_a_map_with_no_proper_grouping():
    # T1 and T3 come after the hanging edge Z2 in every valid order, so each
    # prefix they top is no boundary, and Z1 T1 Z3' closes a loop off the
    # floor {A, B}: no order has a proper grouping, and the audit says so
    # rather than report a broken bound
    g = MarkedGraph(
        ["a", "z1", "z2", "z3"],
        [("Z2", "a", "z2"), ("A", "a", "a"), ("T3", "z1", "z1"), ("Z1", "a", "z1"),
         ("B", "a", "a"), ("T2", "z1", "z1"), ("T1", "z1", "z3"), ("Z3", "a", "z3")],
        intermediate=True,
    )
    images = {"Z2": "A B", "A": "A", "T3": "Z1 T1 Z3' Z1 T3' Z1'", "Z1": "B", "B": "B A",
              "T2": "Z3 T1' Z1' Z3 T1' Z1' B'", "T1": "Z3 T1' Z1' A' B'", "Z3": "B' A' B"}
    m = GraphMap(g, {e: g.path(w.split()) for e, w in images.items()})
    assert next(valid_orders(m, _accept_all), None) is None
    a = rank_audit(m)
    assert not a.passed and a.order is None and a.stages == []
    assert a.lines() == ["no valid stratum order has a proper stage grouping", "audit FAILED"]


def test_audit_lines_format():
    a = rank_audit(partial_fps_map())
    assert a.lines()[0] == "ranks [0, 0, 1, 2, 3]"
    assert a.lines()[2] == "  G_1 -> G_4: dR=3 = 2*2 - 1 case (b)"
    assert a.lines()[-1] == "audit passed"


# -- FPS detection ---------------------------------------------------------------


def test_detect_partial_fps():
    (w,) = detect_fps(partial_fps_map())
    assert w.kind == "partial"
    assert w.l == 1 and w.strata == (2, 3, 4)
    assert w.shape == "pair-of-arcs"
    assert w.eg_edges == ("P", "Q")
    assert [(e, d, v) for e, d, v in w.linear] == [("E2", 1, "v2"), ("E3", 2, "v3")]
    assert [ax.edges for ax in w.alphas] == [("E1",), ("E1",)]
    assert w.chi_drop == 2


def test_detect_full_fps():
    (w,) = detect_fps(full_fps_map())
    assert w.kind == "full"
    assert w.l == 2 and w.strata == (3, 4, 5, 6)
    assert w.eg_edges == ("U", "V")
    assert [(e, d, v) for e, d, v in w.linear] == [
        ("F1", 1, "w1"),
        ("F2", 2, "w2"),
        ("F3", 3, "w3"),
    ]
    assert w.chi_drop == 2


def test_detect_fps_none_on_roses():
    assert detect_fps(qe_rose()) == []
    assert detect_fps(rose_cascade()) == []
    assert detect_fps(exceptional_rose()) == []


def test_full_fps_degrades_to_partial_when_a_twist_is_off():
    # with F1 fixed there are only two linear edges below the EG stratum,
    # and its images become concatenations over the larger floor G_3
    m = full_fps_map()
    imgs = dict(m.edge_images)
    imgs["F1"] = m.graph.path(["F1"])
    m2 = GraphMap(m.graph, imgs)
    (w,) = detect_fps(m2)
    assert w.kind == "partial" and w.l == 3 and w.strata == (4, 5, 6)
    assert [e for e, _, _ in w.linear] == ["F2", "F3"]


def test_detect_fps_rejects_bad_image_grammar():
    # F1 E1 E2 F1' is not a twist conjugate and not a Nielsen path
    m = full_fps_map()
    imgs = dict(m.edge_images)
    imgs["V"] = m.graph.path("U' F1 E1 E2 F1' U F2 E1 F2' V".split())
    m2 = GraphMap(m.graph, imgs)
    assert detect_fps(m2) == []


def test_witness_lines_mention_shape_and_twists():
    (w,) = detect_fps(full_fps_map())
    text = "\n".join(w.lines())
    assert "full FPS subgraph over G_2" in text
    assert "pair-of-arcs" in text
    assert "linear F3 from w3 twisting (E1)^3" in text


# -- classification --------------------------------------------------------------


def test_classify_rejects_unknown_mode():
    with pytest.raises(InputError):
        classify_max_rank(qe_rose(), mode="both")


def test_classify_partial_fps_map():
    r = classify_max_rank(partial_fps_map())
    assert r.ok and r.rank == r.target == 3
    assert r.base == ("A", 3)
    assert r.stages == []


def test_classify_full_fps_map():
    r = classify_max_rank(full_fps_map())
    assert r.ok and r.rank == r.target == 5
    assert r.base == ("A", 2)
    assert len(r.stages) == 1
    kind, num, witness = r.stages[0]
    assert (kind, num) == ("B", 2) and witness.kind == "full"


def test_classify_type_e_family():
    for n in (3, 4, 5):
        r = classify_max_rank(gen_type_e(n).generic)
        assert r.ok and r.rank == 2 * n - 3
        assert r.base == ("A", 2)
        assert all(s[:2] == ("B", 1) for s in r.stages)
        assert len(r.stages) == n - 2


def test_classify_type_c_family():
    for n in (4, 5):
        fam = gen_type_c(n)
        assert is_IA(fam.generic)
        r = classify_max_rank(fam.generic, mode="ia")
        assert r.ok and r.rank == 2 * n - 4
        assert r.base[0] == "A"
        assert all(s[:2] == ("B", 1) for s in r.stages)


def test_classify_reports_rank_obstruction():
    r = classify_max_rank(qe_rose())
    assert not r.ok
    assert r.obstruction == "rank(L) is 1, not 5"
    assert "not maximal" in "\n".join(r.lines())


def test_classify_ia_reports_homology_obstruction():
    # rank 2n-4 is attained but the E3 twist is visible in homology
    fam = gen_type_c(4)
    imgs = dict(fam.generic.edge_images)
    imgs["E3"] = fam.graph.path(["E3", "E1"])
    m = GraphMap(fam.graph, imgs)
    assert disintegrate(m).lattice.rank == 4
    r = classify_max_rank(m, mode="ia")
    assert not r.ok
    assert r.obstruction == "the map acts nontrivially on homology"


def _rose_map(images):
    g = MarkedGraph(["v"], [(e, "v", "v") for e in images])
    return GraphMap(g, {e: g.path(w.split()) for e, w in images.items()})


@pytest.mark.parametrize("m, rank", [
    pytest.param(gen_type_e(3).generic, 3, id="type_e_3"),
    pytest.param(_rose_map({"A": "A", "B": "B A"}), 1, id="B_to_BA"),
])
def test_classify_ia_names_the_homology_action_before_the_rank(m, rank):
    # rank(L) differs from the ia target 2n-4, but outside IA that target
    # does not apply: a rank obstruction would read as a counterexample
    r = classify_max_rank(m, mode="ia")
    assert not is_IA(m) and r.rank == rank != r.target
    assert r.obstruction == "the map acts nontrivially on homology"
    assert classify_max_rank(m).obstruction != r.obstruction


@pytest.mark.parametrize("mode", ["general", "ia"])
def test_classify_refuses_rank_one_before_any_rank(monkeypatch, mode):
    def no_rank(*args):
        raise AssertionError("a rank was computed")

    monkeypatch.setattr(maxrank_module, "disintegrate", no_rank)
    with pytest.raises(InputError, match=r"needs n >= 2, got n=1$"):
        classify_max_rank(_rose_map({"A": "A"}), mode)


def test_classify_searches_stratum_reorderings():
    m = _interleaved_pairs()
    # under construction order the two pairs interleave and no proper
    # grouping exists, so the match must come from a reordering
    assert default_stage_grouping(m) == [1, 2, 6]
    r = classify_max_rank(m)
    assert r.ok and r.rank == 5
    assert r.order == (0, 1, 2, 4, 3, 5)
    assert [s[2] for s in r.stages] == [("E3", "E4"), ("E5", "E6")]
    assert any("reordered" in ln for ln in r.lines())


@pytest.mark.parametrize(
    "make", [_interleaved_pairs, lambda: gen_type_e(5).generic], ids=["interleaved", "type_e_5"]
)
def test_classify_builds_one_filtration_per_boundary_checked(make, monkeypatch):
    # each stage check gets one filtration, the strata of the order so far,
    # and reads nothing else; the last one checked lists the order found
    m = make()
    filt = filtration(m)
    checked, built = [], []
    stage, init = maxrank_module._structure_stage, Filtration.__init__

    def counted_stage(mk, mode, n, listed, grouping):
        checked.append(list(listed.strata))
        return stage(mk, mode, n, listed, grouping)

    def counted_init(self, graph, strata):
        built.append(list(strata))
        init(self, graph, strata)

    monkeypatch.setattr(maxrank_module, "_structure_stage", counted_stage)
    monkeypatch.setattr(Filtration, "__init__", counted_init)
    r = classify_max_rank(m)
    assert r.ok and checked[-1] == [filt[i] for i in r.order]
    assert built == checked


def test_classify_names_the_first_rejection_the_search_met():
    # under the search every valid order of the interleaved pairs with a
    # proper grouping matches in general mode; in ia mode the bottom, E1
    # fixed and E2 linear, is no base case
    m = _interleaved_pairs()
    check = functools.partial(_structure_stage, m, "ia", len(filtration(m)))
    assert next(valid_orders(m, check), None) is None
    rejections = []

    def recorded(filt, grouping):
        piece = check(filt, grouping)
        if isinstance(piece, str):
            rejections.append(piece)
        return piece

    assert next(valid_orders(m, recorded), None) is None
    assert rejections[0] == "bottom of the filtration matches no base case"


# -- the twist families ----------------------------------------------------------


def test_family_graph_shape():
    fam = gen_type_e(4)
    g = fam.graph
    assert g.rank() == 4
    assert [g.is_loop(e) for e in g.edge_names] == [True, True, False, False, False, False]
    assert g.init("E5") == "v3" and g.term("E5") == "v1"


def test_type_e_generator_count_and_commutation():
    fam = gen_type_e(3)
    assert [m.name for m in fam.generators] == ["eta_1", "eta_2", "eta_3"]
    for a in fam.generators:
        for b in fam.generators:
            assert compose(a, b).edges_equal(compose(b, a))


def test_type_e_first_generator_pi1_action():
    # eta_1 sends the second basis loop to (second)(first) and fixes the rest
    fam = gen_type_e(3)
    tree = spanning_tree(fam.graph)
    assert pi1_basis(fam.graph, tree) == ["E1", "E2", "E4"]
    words = pi1_images(fam.generators[0], tree)
    assert words == [("E1",), ("E2", "E1"), ("E4",)]


def test_type_c_generator_count_and_word():
    fam = gen_type_c(4)
    assert [m.name for m in fam.generators] == ["mu_1", "mu_2", "mu_3", "mu_4"]
    assert fam.word.edges == ("E1", "E2", "E1'", "E2'")
    for a in fam.generators:
        for b in fam.generators:
            assert compose(a, b).edges_equal(compose(b, a))


def test_type_c_generator_pi1_action():
    fam = gen_type_c(4)
    tree = spanning_tree(fam.graph)
    assert pi1_basis(fam.graph, tree) == ["E1", "E2", "E4", "E6"]
    words = pi1_images(fam.generators[0], tree)
    # the twisted loop picks up the commutator of the two petals
    assert words[2] == ("E2", "E1", "E2'", "E1'", "E4")
    assert words[0] == ("E1",) and words[1] == ("E2",) and words[3] == ("E6",)


def test_type_c_members_act_trivially_on_homology():
    fam = gen_type_c(5)
    assert all(is_IA(m) for m in fam.generators)
    assert is_IA(fam.generic)
    assert not is_IA(gen_type_e(3).generic)


def test_generic_members_are_ct():
    assert check_ct(gen_type_e(3).generic).passed
    assert check_ct(gen_type_c(4).generic).passed


def test_family_rank_census():
    for n in (3, 4, 5):
        assert disintegrate(gen_type_e(n).generic).lattice.rank == 2 * n - 3
    for n in (4, 5):
        assert disintegrate(gen_type_c(n).generic).lattice.rank == 2 * n - 4


def test_gen_argument_validation():
    with pytest.raises(InputError):
        gen_type_e(2)
    with pytest.raises(InputError):
        gen_type_c(3)
    with pytest.raises(InputError, match="homologically trivial"):
        gen_type_c(4, ["E1", "E2"])
    with pytest.raises(InputError, match="only E1 and E2"):
        gen_type_c(4, ["E3", "E3'"])
    with pytest.raises(InputError, match="trivial"):
        gen_type_c(4, ["E1", "E1'"])


def test_type_c_accepts_custom_word():
    fam = gen_type_c(4, ["E2", "E1", "E2'", "E1'"])
    assert fam.word.edges == ("E2", "E1", "E2'", "E1'")
    assert is_IA(fam.generic)
    assert classify_max_rank(fam.generic, mode="ia").ok


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=9), min_size=3, max_size=3, unique=True
    )
)
def test_twist_exponents_never_break_audit_or_rank(exps):
    # distinct positive twisting exponents on the n=3 family graph give
    # lattice rank three, a passing audit and a matching decomposition
    # (equal exponents on one axis are rejected by the structure checks)
    g = gen_type_e(3).graph
    imgs = {"E1": g.path(["E1"])}
    for name, d in zip(("E2", "E3", "E4"), exps):
        imgs[name] = g.path([name] + ["E1"] * d)
    m = GraphMap(g, imgs)
    assert stage_ranks(m) == [0, 0, 1, 2, 3]
    assert rank_audit(m).passed
    assert classify_max_rank(m).ok


# -- vertex-split surgery --------------------------------------------------------


def test_split_shifts_exponents_and_fixes_pivot():
    sp = split_twist_vertex(qe_rose(), "E2")
    g = sp.graph
    assert g.edge_names == ("E1", "E2", "E3", "E4", "E0")
    assert sp.edge_images["E2"].edges == ("E2",)
    assert sp.edge_images["E0"].edges == ("E0",)
    # E3 had exponent 1, the pivot 2; the shifted twist is one negative
    # power of the conjugated axis loop
    assert sp.edge_images["E3"].edges == ("E3", "E0", "E1'", "E0'")
    filt = filtration(sp)
    (e3,) = [s for s in filt if s.edges == ("E3",)]
    assert e3.linear and e3.axis.edges == ("E0", "E1'", "E0'") and e3.exponent == 1


def test_split_lifts_other_images_through_the_new_edge():
    sp = split_twist_vertex(qe_rose(), "E2")
    assert sp.edge_images["E4"].edges == ("E4", "E3", "E0", "E3", "E2'")


def test_split_map_carries_the_forest_and_stays_surjective():
    sp = split_twist_vertex(qe_rose(), "E2")
    assert find_invariant_forest(sp) == ("E2",)
    assert map_is_pi1_surjective(sp)
    with pytest.raises(InvariantForestError):
        classify_max_rank(sp)


def test_split_on_full_fps_map():
    sp = split_twist_vertex(full_fps_map(), "F2")
    # every twist over E1 moves: exponents shift by -2
    assert sp.edge_images["F2"].edges == ("F2",)
    assert sp.edge_images["F1"].edges == ("F1", "E0", "E1'", "E0'")
    assert sp.edge_images["F3"].edges == ("F3", "E0", "E1", "E0'")
    assert sp.edge_images["E2"].edges == ("E2", "E0", "E1", "E1", "E0'")
    assert find_invariant_forest(sp) == ("F2",)
    assert map_is_pi1_surjective(sp)


def test_split_argument_validation():
    with pytest.raises(InputError, match="not a linear edge"):
        split_twist_vertex(qe_rose(), "E4")
    with pytest.raises(InputError, match="names are taken"):
        split_twist_vertex(qe_rose(), "E2", new_edge="E1")
