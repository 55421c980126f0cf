"""Nielsen catalog, linear edges, axes, and splitting tests.

The catalog is pinned against brute-force enumeration on small bounds:
every tight path up to the bound is checked for f_#(p) = p directly, and
indivisibility by trying every split point.
"""

import collections
import contextlib
import io
import itertools
import json
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from traintrack import MarkedGraph, cli, nielsen
from traintrack.ct import check_ct, connecting_paths
from traintrack.errors import (
    InconsistentFiltration,
    LViolation,
    MalformedPath,
    NotCompletelySplit,
    TrainTrackError,
)
from traintrack.maps import Filtration, GraphMap, compose, filtration, restrict
from traintrack.paths import Path, base_name, inverse
from traintrack.nielsen import (
    TERM_CONN,
    TERM_EDGE,
    TERM_EXC,
    TERM_INP,
    TERM_QE,
    NielsenCatalog,
    NielsenEntry,
    Term,
    _circuit_key,
    _search_fixed_paths,
    _stable_prefixes,
    axes,
    build_catalog,
    complete_split,
    default_length_bound,
    is_nielsen_path,
    qe_split,
)
from traintrack.coords import coordinate_system
from traintrack.disintegrate import build_fa, disintegrate, verify_commute
from traintrack.maxrank import (
    classify_max_rank,
    gen_type_c,
    gen_type_e,
    rank_audit,
    stage_ranks,
)
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
from oracles import (
    check_fa_is_ct,
    family_member,
    family_records_by_pairs,
    inner_twist_pair,
    inps,
    is_indivisible_by_brute_force,
    legal_cuts,
    pieces,
    qe_families,
    reference_candidates,
    reference_complete_split,
    reference_qe_split,
    verify_nielsen_preserved,
)
from order_reference import reference_orders


def _rose(names):
    return MarkedGraph(["v"], [(n, "v", "v") for n in names])


def _map(g, images, name="f"):
    return GraphMap(g, {e: g.path(w.split()) for e, w in images.items()}, name=name)


def tight_paths_up_to(g, n):
    out = []
    frontier = [((d,), g.term(d)) for d in g.directions()]
    while frontier:
        nxt = []
        for edges, end in frontier:
            out.append(g.path(edges))
            if len(edges) < n:
                for d in g.directions(end):
                    if d != inverse(edges[-1]):
                        nxt.append((edges + (d,), g.term(d)))
        frontier = nxt
    return out


def norm(p):
    return min(p.edges, p.reverse().edges)


def brute_nielsen(m, max_len):
    return [p for p in tight_paths_up_to(m.graph, max_len) if m.apply(p) == p]


def brute_indivisible(m, p):
    for i in range(1, len(p)):
        left, right = p.subpath(0, i), p.subpath(i, len(p))
        if m.apply(left) == left and m.apply(right) == right:
            return False
    return True


# -- catalog vs brute force ------------------------------------------------------


def test_catalog_matches_brute_force_qe_rose():
    m = qe_rose()
    bound = 4
    cat = build_catalog(m, bound=bound)
    cat_inps = {norm(e.path) for e in inps(cat)}
    brute = {
        norm(p)
        for p in brute_nielsen(m, bound)
        if len(p) >= 2 and brute_indivisible(m, p)
    }
    assert cat_inps == brute
    assert brute == {
        ("E2", "E1", "E2'"),
        ("E2", "E1", "E1", "E2'"),
        ("E3", "E1", "E3'"),
        ("E3", "E1", "E1", "E3'"),
    }
    # composite entries carry the flag and are genuinely divisible
    for e in cat.entries:
        assert is_nielsen_path(m, e.path)
        if not e.indivisible:
            assert not brute_indivisible(m, e.path)


def test_catalog_matches_brute_force_rose_cascade():
    m = rose_cascade()
    cat = build_catalog(m, bound=4)
    cat_inps = {norm(e.path) for e in inps(cat)}
    brute = {
        norm(p)
        for p in brute_nielsen(m, 4)
        if len(p) >= 2 and brute_indivisible(m, p)
    }
    assert cat_inps == brute == {("B", "A", "B'"), ("B", "A", "A", "B'")}
    assert cat.fixed_edges == ["A"]


def test_catalog_fixed_edges_and_heights():
    m = qe_rose()
    cat = build_catalog(m, bound=6)
    assert cat.fixed_edges == ["E1"]
    for e in cat.entries:
        # every entry through E2 / E3 tops out at that stratum
        top = max(e.path.edges, key=lambda x: m.graph.edge_index(x))
        assert e.height == {"E1": 0, "E2": 1, "E3": 2}[top.rstrip("'")]


def test_catalog_is_cached():
    m = qe_rose()
    assert build_catalog(m, bound=8) is build_catalog(m, bound=8)
    assert build_catalog(m, bound=8) is not build_catalog(m, bound=9)


def test_default_bound_covers_images():
    m = qe_rose()
    assert default_length_bound(m) == 4 * 4 + 8


def test_periodic_entries_orientation_flip():
    # B reverses onto itself, so BB flips orientation and returns: a
    # genuine period-two Nielsen path, while AA is fixed outright.
    g = _rose(["A", "B"])
    m = _map(g, {"A": "A", "B": "B'"})
    cat = build_catalog(m, bound=4)
    assert any(e.path.edges == ("B", "B") and e.period == 2 for e in cat.periodic)
    for e in cat.periodic:
        probe = e.path
        for _ in range(e.period):
            probe = m.apply(probe)
        assert probe == e.path
        assert m.apply(e.path) != e.path
    assert any(e.path.edges == ("A", "A") for e in cat.entries)


def test_no_periodic_entries_qe_rose():
    cat = build_catalog(qe_rose(), bound=6)
    assert cat.periodic == []


# -- periodic list against the from-scratch search ----------------------------------


def _exact_period(m, sigma, k_max):
    probe = sigma
    for j in range(1, k_max + 1):
        probe = m.apply(probe)
        if probe == sigma:
            return j
    return None


def reference_catalog(m, bound, period_bound):
    """(path, period, height) of the entries and of the periodic list, by
    running the whole fixed-path search from scratch on every f^k and
    keeping what has exact period k -- no knowledge carried between k."""
    filt = filtration(m)
    entries = [(s.edges, 1, filt.height(s)) for s in _search_fixed_paths(m, bound)[0]]
    periodic = []
    mk = m
    for k in range(2, period_bound + 1):
        mk = compose(m, mk)
        for sigma in _search_fixed_paths(mk, bound)[0]:
            if _exact_period(m, sigma, k) == k:
                periodic.append((sigma.edges, k, filt.height(sigma)))
    return entries, periodic


def assert_catalog_matches_reference(m, bound):
    cat = build_catalog(m, bound)
    entries, periodic = reference_catalog(m, bound, 3)
    assert [(e.path.edges, e.period, e.height) for e in cat.entries] == entries
    assert [(e.path.edges, e.period, e.height) for e in cat.periodic] == periodic
    for e in cat.periodic:
        assert _exact_period(m, e.path, e.period) == e.period
    return cat


def test_periodic_list_matches_reference_flip_rose():
    g = _rose(["A", "B"])
    cat = assert_catalog_matches_reference(_map(g, {"A": "A", "B": "B'"}), 5)
    assert [e.path.edges for e in cat.periodic] == [
        ("A", "B"), ("A", "B'"), ("A'", "B"), ("A'", "B'"), ("B", "B"),
    ]


@pytest.mark.xfail(
    strict=True,
    reason="f^2 = id fixes every direction, so each ray stops at length one and "
    "only length-2 candidates are paired: A A B (period 2) is missing",
)
def test_periodic_list_of_an_involution_matches_brute_force():
    # brute force: the tight paths of length 2..5 with f^2_#(p) = p != f_#(p)
    g = _rose(["A", "B"])
    m = _map(g, {"A": "A", "B": "B'"})
    brute = {
        norm(p)
        for p in tight_paths_up_to(g, 5)
        if len(p) >= 2 and m.apply(m.apply(p)) == p != m.apply(p)
    }
    listed = {norm(e.path) for e in build_catalog(m, 5).periodic}
    assert listed <= brute
    assert listed == brute


def test_fixed_periodic_directions_do_not_rule_out_periodic_paths():
    # every periodic direction is fixed, yet f^2 fixes paths that f does
    # not: E3' E1^j E3 maps to E3' E1' E2 E1^j E2' E1 E3 and back, so the
    # f^k search cannot be replaced by a test on directions alone
    g = _rose(["E1", "E2", "E3"])
    m = _map(g, {"E1": "E1", "E2": "E1 E2'", "E3": "E2' E1 E3"})
    dm = nielsen.direction_map(m)
    assert {d: dm.orbit_period(d) for d in g.directions()} == {
        "E1": (True, 1), "E1'": (True, 1), "E3'": (True, 1),
        "E2": (False, 0), "E2'": (False, 0), "E3": (False, 0),
    }
    periodic = build_catalog(m).periodic
    assert len(periodic) == 18 and {e.period for e in periodic} == {2}
    assert periodic[0].path.edges == ("E3'", "E1", "E3")
    for e in periodic:
        assert _exact_period(m, e.path, 2) == 2


def test_periodic_list_matches_reference_flipped_twist():
    g = _rose(["A", "B"])
    cat = assert_catalog_matches_reference(_map(g, {"A": "A'", "B": "B A"}), 6)
    assert cat.periodic and all(e.period == 2 for e in cat.periodic)


def test_stable_prefix_rays_report_their_iterate_cap():
    # The ray of C under C -> C B (B -> B A) grows by one edge per iterate,
    # so one iterate cuts it short; A is fixed and stops on its own, and
    # B's ray is linear, known in closed form without iterating.
    m = rose_cascade()
    linear = nielsen._linear_index(m).edges
    assert _stable_prefixes(m, 4, iter_cap=1, linear=linear)[1] == [("C", 1)]
    assert _stable_prefixes(m, 4, linear=linear)[1] == []
    assert build_catalog(m, 4).budgets_hit == ()


def _capped_at_one(stable_prefixes):
    return lambda m, bound, iter_cap=None, linear=None, rays=None: stable_prefixes(
        m, bound, 1, linear, rays)


def test_iterate_cap_hit_becomes_a_caveat(monkeypatch):
    monkeypatch.setattr(nielsen, "_stable_prefixes", _capped_at_one(nielsen._stable_prefixes))
    m = rose_cascade()
    cat = build_catalog(m, 4)
    assert cat.budgets_hit == (
        "stable-prefix ray of f from direction C cut at its iterate cap 1",
        "stable-prefix ray of f^2 from direction C cut at its iterate cap 1",
        "stable-prefix ray of f^3 from direction C cut at its iterate cap 1",
    )
    report = check_ct(m, bound=4)
    assert "note: search budget hit: " + cat.budgets_hit[0] in report.lines()


@st.composite
def triangular_roses(draw):
    """Roses whose i-th edge maps to u . E_i^(+-1) . v, with u, v words in
    the lower edges: automorphisms, with random orientation flips."""
    n = draw(st.integers(2, 3))
    names = ["E%d" % (i + 1) for i in range(n)]
    g = _rose(names)
    images = {}
    for i, e in enumerate(names):
        lower = names[:i] + [inverse(x) for x in names[:i]]
        word = st.lists(st.sampled_from(lower), max_size=2) if lower else st.just([])
        core = e if draw(st.booleans()) else inverse(e)
        images[e] = g.tighten(draw(word) + [core] + draw(word))
    return GraphMap(g, images)


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.integers(4, 6))
def test_periodic_list_matches_reference_random_roses(m, bound):
    assert_catalog_matches_reference(m, bound)


def _corpus_map(name):
    if name.startswith("ladder_"):
        return _ladder(int(name.rsplit("_", 1)[1]))
    if name.startswith("type_"):
        gen = gen_type_e if name.startswith("type_e") else gen_type_c
        return gen(int(name.rsplit("_", 1)[1])).generic
    return SAMPLES[name]()


@pytest.mark.parametrize(
    "name", sorted(SAMPLES) + ["ladder_25", "type_e_3", "type_e_4", "type_c_4"]
)
def test_periodic_list_matches_reference_corpus_maps(name):
    # the deferred periodic list equals the eager from-scratch search
    m = _corpus_map(name)
    assert_catalog_matches_reference(m, default_length_bound(m))


# -- indivisible flags against every cut -----------------------------------------


def assert_flags_match_brute_force(m, bound):
    cat = build_catalog(m, bound)
    for e in cat.entries:
        assert e.indivisible == brute_indivisible(m, e.path), e.path
    return cat


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.integers(4, 7))
def test_indivisible_flags_match_brute_force_random_roses(m, bound):
    assert_flags_match_brute_force(m, bound)


@pytest.mark.parametrize("name", sorted(SAMPLES) + ["ladder_25"])
def test_indivisible_flags_match_brute_force_corpus_maps(name):
    # the ladder at its default bound 112 lists B A^j B' for j up to 110
    m = _corpus_map(name)
    bound = default_length_bound(m) if name == "ladder_25" else 8
    assert_flags_match_brute_force(m, bound)


@pytest.mark.parametrize(
    "images, composites",
    [
        # p = E1 E2' E1' E2 E1 is not Nielsen, its prefix E1 E2' E1' E2 is
        (
            {"E1": "E1 E2'", "E2": "E1", "E3": "E3 E2'"},
            [("E1", "E2'", "E1'", "E2", "E1", "E3'"),
             ("E3", "E1'", "E2'", "E1", "E2", "E3'")],
        ),
        # p = E1 and q = E1 E2 E3' E2' E3 (or E3 E2 E3' E2' E3): the
        # Nielsen piece is a proper prefix of q
        (
            {"E1": "E1 E2", "E2": "E3'", "E3": "E3 E2"},
            [("E1", "E2", "E3'", "E2'", "E3", "E1'"),
             ("E1", "E3'", "E2", "E3", "E2'", "E3'")],
        ),
    ],
)
def test_composite_flag_reads_nielsen_prefixes_inside_p_and_q(images, composites):
    m = _map(_rose(["E1", "E2", "E3"]), images)
    cat = assert_flags_match_brute_force(m, 6)
    assert [(e.path.edges, e.indivisible) for e in cat.entries] == (
        [(("E1", "E3'"), True)] + [(c, False) for c in composites]
    )


# -- prefix catalogs are views of the full catalog -------------------------------


PREFIX_MAPS = (
    sorted(SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)]
)


@pytest.mark.parametrize("name", PREFIX_MAPS)
def test_prefix_catalog_is_the_full_catalog_filtered(name):
    # G_r is invariant, so f_# of a path in G_r stays in G_r and the Nielsen
    # paths of f|G_r are those of f that lie in G_r, split the same way.
    m = _corpus_map(name)
    full = build_catalog(m)
    filt = filtration(m)
    for r in range(1, len(filt) + 1):
        keep = set(filt.prefix_edges(r))
        sub = restricted_afresh(m, keep)
        bound = default_length_bound(sub)
        expected = [
            (x.path.edges, x.indivisible)
            for x in full.entries
            if len(x.path) <= bound and {base_name(e) for e in x.path.edges} <= keep
        ]
        got = [(x.path.edges, x.indivisible) for x in build_catalog(sub).entries]
        assert got == expected, (name, r)


def restricted_afresh(m, edges):
    """f|S built without :func:`restrict`: its own graph and images, and a
    filtration computed from them when first read."""
    g = m.graph
    keep = {base_name(e) for e in edges}
    sub = MarkedGraph(
        sorted(g.incident_vertices(keep)),
        [(e, g.init(e), g.term(e)) for e in g.edge_names if e in keep],
        intermediate=True,
    )
    return GraphMap(sub, {e: sub.path(m.edge_images[e].edges) for e in sub.edge_names})


def reached_down_sets(m, n_orders):
    """The distinct prefixes G_r met along the first ``n_orders`` valid
    stratum orders, as frozensets of edges."""
    filt = filtration(m)
    out = {}
    for order in reference_orders(m, n_orders):
        ordered = Filtration(m.graph, [filt[i] for i in order])
        for r in range(1, len(filt) + 1):
            out.setdefault(frozenset(ordered.prefix_edges(r)), None)
    return list(out)


def invariant_closure(m, edges):
    """The least invariant edge set holding ``edges``."""
    out, todo = set(), list(edges)
    while todo:
        e = base_name(todo.pop())
        if e not in out:
            out.add(e)
            todo.extend(m.edge_images[e].edges)
    return frozenset(out)


@st.composite
def zero_strata_maps(draw):
    """Maps with zero strata: a fixed loop A and a loop B (fixed or linear
    over A) at a, tree edges Z_i from a to z_i mapped into the loops, and
    top edges T_j between the z_i whose images run through A, B, the loops
    Z_p T_l Z_q' for l < j and up to twice through T_j's own.  The edges
    are listed in a drawn order, so zero strata can sit apart in the
    filtration and merge in a prefix."""
    zs = ["z%d" % (i + 1) for i in range(draw(st.integers(1, 3)))]
    edges = [("A", "a", "a"), ("B", "a", "a")]
    edges += [("Z%d" % (i + 1), "a", z) for i, z in enumerate(zs)]
    tops = [
        ("T%d" % (j + 1), draw(st.sampled_from(zs)), draw(st.sampled_from(zs)))
        for j in range(draw(st.integers(1, 3)))
    ]
    g = MarkedGraph(["a"] + zs, draw(st.permutations(edges + tops)), intermediate=True)
    base = ["A", "A'", "B", "B'"]
    images = {"A": ["A"], "B": ["B"] + ["A"] * draw(st.integers(0, 2))}
    for i in range(len(zs)):
        images["Z%d" % (i + 1)] = draw(st.lists(st.sampled_from(base), min_size=1, max_size=3))
    loops = [[x] for x in base]
    for t, p, q in tops:
        z_p, z_q = "Z" + p[1:], "Z" + q[1:]
        own = [[z_p, t, inverse(z_q)], [z_q, inverse(t), inverse(z_p)]]
        word = draw(st.lists(st.sampled_from(loops), min_size=1, max_size=3))
        for _ in range(draw(st.integers(0, 2))):
            word.insert(draw(st.integers(0, len(word))), draw(st.sampled_from(own)))
        loops += own
        images[t] = sum(word, [])
    out = {}
    for e, word in images.items():
        path = g.tighten(word)
        out[e] = path if len(path) else g.path(["A"])
    return GraphMap(g, out)


def _split_record(split):
    return [(t.kind, t.path.edges, t.family and t.family.key(), t.power) for t in split.terms]


def _split_or_error(split, *args):
    try:
        return _split_record(split(*args))
    except TrainTrackError as exc:
        return type(exc)


def _unoriented(path):
    return frozenset((path.edges, path.reverse().edges))


def assert_prefix_splittings_are_the_full_maps(m, down_sets, zero_runs=False):
    # every piece A of f|S splits under f's catalog as f|S, restricted and
    # filtered afresh, splits it under its own catalog, term by term; with
    # ``zero_runs``, except where f|S runs one connecting term over two
    # zero strata of f (the exception the lemma of ``image_qe_split`` names)
    cat = build_catalog(m)
    try:
        axes(m)
    except LViolation:
        # f's families are undefined: every splitting under f refuses
        for keep in down_sets:
            filt = restrict(m, keep)
            for i in range(len(filt)):
                for piece in pieces(m, filt, i):
                    assert _split_or_error(cat.image_qe_split, piece) is LViolation
        return
    level = filtration(m).level
    for keep in down_sets:
        own = restricted_afresh(m, keep)
        own_cat = build_catalog(own)
        filt = filtration(own)
        on_f = restrict(m, keep)
        for i, s in enumerate(filt):
            if s.kind == "fixed":
                continue
            # the pieces disintegration reads on f's graph are f|S's own,
            # up to orientation
            assert {_unoriented(p) for p in pieces(m, on_f, i)} == {
                _unoriented(p) for p in pieces(own, filt, i)
            }, (sorted(keep), i)
            for piece in pieces(own, filt, i):
                try:
                    split = qe_split(own, own.apply(piece), own_cat)
                    want = _split_record(split)
                except TrainTrackError as exc:
                    split, want = None, type(exc)
                got = _split_or_error(cat.image_qe_split, m.graph.path(piece.edges))
                if got != want:
                    assert zero_runs and split is not None and any(
                        t.kind == TERM_CONN and len({level(e) for e in t.path.edges}) > 1
                        for t in split.terms
                    ), (sorted(keep), piece.edges, got, want)


def _zero_run_map():
    # Z1 and {Z2 T1} are zero strata of f kept apart by the fixed B; without
    # B they are one zero stratum, and f(T2) runs over both
    g = MarkedGraph(
        ["a", "z1", "z2"],
        [("A", "a", "a"), ("Z1", "a", "z1"), ("B", "a", "a"), ("Z2", "a", "z2"),
         ("T1", "z1", "z1"), ("T2", "z1", "z2")],
    )
    images = {"A": "A", "Z1": "A", "B": "B", "Z2": "A", "T1": "A", "T2": "Z1 T2 Z2' Z1 T1 Z1'"}
    return _map(g, images)


@pytest.mark.xfail(
    strict=True,
    reason="f splits a connecting run at the border of two of its zero strata "
    "that are one stratum of f|S, and refuses the turn there",
)
def test_a_connecting_run_over_two_zero_strata_splits_as_in_the_prefix():
    m = _zero_run_map()
    keep = ["A", "Z1", "Z2", "T1", "T2"]
    own = restricted_afresh(m, keep)
    piece = own.graph.path(["T2"])
    want = _split_record(qe_split(own, own.apply(piece), build_catalog(own)))
    assert want == [
        (TERM_CONN, ("Z1",), None, None),
        (TERM_EDGE, ("T2",), None, None),
        (TERM_CONN, ("Z2'", "Z1", "T1", "Z1'"), None, None),
    ]
    assert _split_or_error(build_catalog(m).image_qe_split, m.graph.path(["T2"])) == want


def test_the_full_map_refuses_a_connecting_run_over_two_of_its_zero_strata():
    # the same refusal as f's own disintegration, so stage_ranks raises too
    m = _zero_run_map()
    sub = restrict(m, ["A", "Z1", "Z2", "T1", "T2"])
    assert [s.kind for s in filtration(m)] == ["fixed", "zero", "fixed", "zero", "NEG"]
    assert [s.edges for s in sub][1] == ("Z1", "Z2", "T1")
    cat = build_catalog(m)
    assert _split_or_error(cat.image_qe_split, m.graph.path(["T2"])) is NotCompletelySplit
    with pytest.raises(NotCompletelySplit):
        disintegrate(m)
    with pytest.raises(NotCompletelySplit):
        stage_ranks(m)


SPLIT_MAPS = (
    sorted(SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)]
)


@pytest.mark.parametrize("name", SPLIT_MAPS)
def test_prefix_splittings_are_the_full_maps(name):
    m = _corpus_map(name)
    assert_prefix_splittings_are_the_full_maps(m, reached_down_sets(m, 20))


def _down_sets_or_none(m, data):
    """Prefixes along valid orders and closures of drawn edge sets, or None
    when m has no maximal filtration."""
    try:
        filtration(m)
    except InconsistentFiltration:
        return None
    drawn = data.draw(st.lists(st.sets(st.sampled_from(m.graph.edge_names)), max_size=4))
    return reached_down_sets(m, 20) + [invariant_closure(m, es) for es in drawn if es]


@settings(max_examples=80, deadline=None)
@given(zero_strata_maps(), st.data())
def test_prefix_splittings_are_the_full_maps_zero_strata(m, data):
    down_sets = _down_sets_or_none(m, data)
    if down_sets is not None:
        assert_prefix_splittings_are_the_full_maps(m, down_sets, zero_runs=True)


def test_repr_does_not_run_the_periodic_search(searches):
    # nor the period-one search, which is deferred as well
    cat = build_catalog(swap_rose())
    text = repr(cat)
    assert "period-one search pending" in text and "periodic not searched" in text
    assert searches == {"searches": 0, "composites": 0}
    n = len(cat.generic)
    text = repr(cat)
    assert "%d entries" % n in text and "periodic not searched" in text
    assert "_periodic" not in vars(cat)
    assert searches == {"searches": 1, "composites": 0}
    n = len(cat.periodic)
    assert "%d periodic" % n in repr(cat)


# -- the stable-prefix pairing is Nielsen by construction -------------------------


@st.composite
def arbitrary_roses(draw):
    """Roses with 2-4 edges and arbitrary nontrivial tight edge images, not
    necessarily homotopy equivalences."""
    n = draw(st.integers(2, 4))
    names = ["E%d" % (i + 1) for i in range(n)]
    g = _rose(names)
    letters = names + [inverse(x) for x in names]
    images = {}
    for e in names:
        word = g.tighten(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4)))
        images[e] = word if len(word) else g.path([e])
    return GraphMap(g, images)


def _powers(m):
    """f, f^2, f^3, short of the first f^k that collapses an edge, which is
    not a graph map."""
    powers = [m]
    for _ in range(2):
        try:
            powers.append(compose(m, powers[-1]))
        except MalformedPath:
            break
    return powers


def assert_pairs_are_nielsen(m, bound):
    # f_#(p.reverse(q)) = [p.s.reverse(s).reverse(q)] = p.reverse(q): every
    # pair the search keeps unchecked is Nielsen, on f and on the f^2, f^3
    # that the periodic list searches (run directly: a filtration is not
    # needed)
    for mk in _powers(m):
        sigmas = _search_fixed_paths(mk, bound)[0]
        assert all(is_nielsen_path(mk, sigma) for sigma in sigmas)


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.integers(4, 7))
def test_pairing_lemma_triangular_roses(m, bound):
    assert_pairs_are_nielsen(m, bound)


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses(), st.integers(4, 7))
def test_pairing_lemma_arbitrary_roses(m, bound):
    assert_pairs_are_nielsen(m, bound)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pairing_lemma_samples(name):
    m = SAMPLES[name]()
    assert_pairs_are_nielsen(m, default_length_bound(m))


def test_catalog_lists_pairs_not_every_nielsen_path():
    # the module docstring's count: at bound 6, qe_rose has 97 Nielsen
    # paths of length >= 2 up to orientation, and the catalog lists 9
    m = qe_rose()
    brute = {norm(p) for p in brute_nielsen(m, 6) if len(p) >= 2}
    listed = {norm(x.path) for x in build_catalog(m, 6).entries}
    assert listed < brute
    assert (len(listed), len(brute)) == (9, 97)
    assert ("E1", "E1", "E1") in brute and ("E1", "E1", "E1") not in listed


# -- the periodic list is searched on first read --------------------------------


@pytest.fixture
def searches(monkeypatch):
    """Counts the fixed-path searches and the f^k composites of the catalog."""
    log = {"searches": 0, "composites": 0}
    search, compose_ = nielsen._search_fixed_paths, nielsen.compose

    def counted_search(*args, **kwargs):
        log["searches"] += 1
        return search(*args, **kwargs)

    def counted_compose(*args):
        log["composites"] += 1
        return compose_(*args)

    monkeypatch.setattr(nielsen, "_search_fixed_paths", counted_search)
    monkeypatch.setattr(nielsen, "compose", counted_compose)
    return log


LAZY_MAPS = {
    "swap_rose": swap_rose,
    "qe_rose": qe_rose,
    "type_e_4": lambda: gen_type_e(4).generic,
}


def _tuple(m, value):
    return (value,) * disintegrate(m).M


LAZY_OPS = {
    "disintegrate": disintegrate,
    "build_fa": lambda m: build_fa(m, _tuple(m, 1)),
    "coordinate_system": coordinate_system,
    "rank_audit": rank_audit,
    "classify_max_rank": classify_max_rank,
    "verify_commute": lambda m: verify_commute(m, _tuple(m, 1), _tuple(m, 2)),
}


@pytest.mark.parametrize("op", sorted(LAZY_OPS))
@pytest.mark.parametrize("name", sorted(LAZY_MAPS))
def test_answers_without_periodic_list_search_period_one_only(searches, name, op):
    # type E's images split in closed form, so nothing there reads the
    # catalog's entries and not even the period-one search runs
    LAZY_OPS[op](LAZY_MAPS[name]())
    assert searches["searches"] == (0 if name == "type_e_4" else 1)
    assert searches["composites"] == 0


def test_periodic_list_is_searched_once_on_first_read(searches):
    g = _rose(["A", "B"])
    cat = build_catalog(_map(g, {"A": "A", "B": "B'"}), 5)
    assert searches == {"searches": 0, "composites": 0}
    assert len(cat.periodic) == 5
    # f^2 = id fixes B, which is neither fixed nor linear, so f^2 is
    # searched; f^3 = f fixes only A's directions, so f^3 is composed and
    # not searched (the lemma of _search_periodic)
    assert searches == {"searches": 2, "composites": 2}
    assert cat.periodic is cat.periodic
    assert cat.budgets_hit == ()
    assert searches == {"searches": 2, "composites": 2}


def test_budget_notes_read_first_run_the_periodic_search(searches):
    build_catalog(qe_rose()).budgets_hit
    assert searches == {"searches": 3, "composites": 2}


def test_check_ct_runs_the_periodic_search(searches):
    check_ct(qe_rose())
    assert searches == {"searches": 3, "composites": 2}


# -- linear families in closed form -----------------------------------------------


def generic_catalog(m, bound, period_bound=3):
    """(entries, periodic, notes) by the member-by-member search: the pairing
    loop without linear edges, and f^k searches that skip every period-one
    entry in both orientations."""
    filt = filtration(m)
    sigmas, composite, families, capped = _search_fixed_paths(m, bound)
    assert families == {}
    entries = [(s.edges, not composite[s.edges], filt.height(s)) for s in sigmas]
    known = frozenset(e for s in sigmas for e in (s.edges, s.reverse().edges))
    notes = [nielsen._cap_note(1, d, cap) for d, cap in capped]
    periodic = []
    mk = m
    for k in range(2, period_bound + 1):
        mk = compose(m, mk)
        sigmas_k, _, _, capped_k = _search_fixed_paths(mk, bound, known)
        notes.extend(nielsen._cap_note(k, d, cap) for d, cap in capped_k)
        for sigma in sigmas_k:
            if _exact_period(m, sigma, k) == k:
                periodic.append((sigma.edges, k, filt.height(sigma)))
    return entries, periodic, tuple(notes)


def assert_closed_form_matches_generic(m, bound=None):
    bound = bound or default_length_bound(m)
    cat = build_catalog(m, bound)
    entries, periodic, notes = generic_catalog(m, bound)
    assert [(x.path.edges, x.indivisible, x.height) for x in cat.entries] == entries
    assert [(x.path.edges, x.period, x.height) for x in cat.periodic] == periodic
    assert cat.budgets_hit == notes
    filt = filtration(m)
    for x in cat.entries:
        if x.family is not None:
            e = x.family
            w = filt[filt.level(e)].axis.edges
            mid = x.path.edges[1:-1]
            k = len(mid) // len(w)
            assert x.path.edges[0] == e and x.path.edges[-1] == inverse(e)
            assert mid in (w * k, tuple(inverse(a) for a in reversed(w)) * k)
    return cat


def _family_members(cat):
    return [x for x in cat.entries if x.family is not None]


def _ladder(k):
    return _map(_rose(["A", "B"]), {"A": "A", "B": " ".join(["B"] + ["A"] * k)})


FAMILY_MAPS = {
    "same_exponent_pair": lambda: _map(
        _rose(["A", "B", "C"]), {"A": "A", "B": "B A A", "C": "C A A"}
    ),
    "opposite_exponents": lambda: _map(
        _rose(["A", "B", "C"]), {"A": "A", "B": "B A", "C": "C A' A'"}
    ),
    "normal_form_on_the_inverse": lambda: _map(
        _rose(["A", "B", "C"]), {"A": "A", "B": "B", "C": "B' A' C"}
    ),
    "axis_of_length_two": lambda: _map(
        _rose(["A", "B", "C"]), {"A": "A", "B": "B", "C": "C A B A B"}
    ),
    "two_axes": lambda: _map(
        _rose(["A", "B", "C", "D"]), {"A": "A", "B": "B", "C": "C A", "D": "D B' A B'"}
    ),
    # w = X Y and E X are Nielsen, so every member E (X Y)^k E' is composite
    "composite_family": lambda: _map(
        _rose(["X", "Y", "E"]), {"X": "Y'", "Y": "Y X Y", "E": "E X Y"}
    ),
    # the iNp C D' sorts before B's member k = 1, B A B'
    "family_and_short_inp": lambda: _map(
        _rose(["A", "B", "C", "D"]), {"A": "A", "B": "B A A A A A", "C": "C B'", "D": "D B'"}
    ),
}


@pytest.mark.parametrize(
    "name",
    sorted(SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_closed_form_matches_generic_corpus(name):
    assert_closed_form_matches_generic(_corpus_map(name))


@pytest.mark.parametrize("k", [1, 2, 3, 25, 100])
def test_closed_form_matches_generic_ladder(k):
    m = _ladder(k)
    cat = assert_closed_form_matches_generic(m)
    # every iNp B A^j B' is a member of B's family, one per j within bound
    assert inps(cat) == _family_members(cat)
    assert [len(x.path) - 2 for x in inps(cat)] == list(range(1, cat.bound - 1))


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
def test_closed_form_matches_generic_family_maps(name):
    m = FAMILY_MAPS[name]()
    for bound in (5, 9, None):
        cat = assert_closed_form_matches_generic(m, bound)
        assert _family_members(cat)


def test_exceptional_pair_stays_a_generic_pair():
    # B A^j C' pairs B A^j with the bare C: not a family member
    m = FAMILY_MAPS["same_exponent_pair"]()
    cat = build_catalog(m, 7)
    exceptional = [x for x in cat.entries if x.path.edges[0] != inverse(x.path.edges[-1])]
    assert ("B", "A", "C'") in [x.path.edges for x in exceptional]
    assert all(x.family is None for x in exceptional)
    assert {x.family for x in _family_members(cat)} == {"B", "C"}


def test_family_on_the_inverse_edge():
    # f(C) = B' A' C, so f(C') = C' A B: the family is C' (A B)^k C
    cat = build_catalog(FAMILY_MAPS["normal_form_on_the_inverse"](), 8)
    members = _family_members(cat)
    assert {x.family for x in members} == {"C'"}
    assert [x.path.edges for x in members][:2] == [
        ("C'", "A", "B", "C"), ("C'", "A", "B", "A", "B", "C"),
    ]


@st.composite
def linear_roses(draw, top=None):
    """Roses with one or two fixed edges under linear edges E -> E w^d or
    E -> reverse(w)^d E (normal form on E') over cyclically reduced words w
    in the fixed edges, some sharing w and d, and possibly a top edge with
    an arbitrary image around itself (always with ``top=True``, never with
    ``top=False``)."""
    fixed = ["A", "B"][: draw(st.integers(1, 2))]
    linear = ["L%d" % i for i in range(draw(st.integers(1, 3)))]
    top = ["T"] if (draw(st.booleans()) if top is None else top) else []
    g = _rose(fixed + linear + top)
    letters = fixed + [inverse(x) for x in fixed]
    images = {a: a for a in fixed}
    w = None
    for e in linear:
        if w is None or draw(st.booleans()):
            w = g.tighten(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3))).edges
            while len(w) > 1 and w[0] == inverse(w[-1]):
                w = w[1:-1]  # cyclically reduce
            w = w or (fixed[0],)
        d = draw(st.integers(1, 3))
        if draw(st.booleans()):
            images[e] = " ".join((e,) + w * d)
        else:
            images[e] = " ".join(tuple(inverse(x) for x in reversed(w)) * d + (e,))
    below = letters + linear + [inverse(x) for x in linear]
    for e in top:
        u = draw(st.lists(st.sampled_from(below), max_size=2))
        v = draw(st.lists(st.sampled_from(below), max_size=2))
        images[e] = " ".join(g.tighten(u + [e] + v).edges)
    return _map(g, images)


@st.composite
def qe_roses(draw):
    """Roses with fixed edges A, B, two or three linear edges L_i -> L_i
    w^(d_i) over one cyclically reduced word w with distinct d_i of either
    sign, and a top edge T -> T L_i w^p L_j' over two of them, so that f(T)
    meets a QE family (an exceptional one when d_i, d_j share a sign)."""
    g = _rose(["A", "B", "L0", "L1", "L2", "T"])
    w = g.tighten(draw(st.lists(st.sampled_from(["A", "B", "A'", "B'"]), min_size=1,
                                max_size=3))).edges
    while len(w) > 1 and w[0] == inverse(w[-1]):
        w = w[1:-1]  # cyclically reduce
    w = w or ("A",)
    bar = tuple(inverse(x) for x in reversed(w))
    exps = draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=3, max_size=3,
                         unique=True))
    images = {"A": ("A",), "B": ("B",)}
    for i, d in enumerate(exps):
        images["L%d" % i] = ("L%d" % i,) + (w if d > 0 else bar) * abs(d)
    i, j = draw(st.permutations(range(3)))[:2]
    p = draw(st.integers(-2, 2))
    images["T"] = ("T", "L%d" % i) + (w if p > 0 else bar) * abs(p) + ("L%d'" % j,)
    return GraphMap(g, {e: g.path(word) for e, word in images.items()})


@st.composite
def composite_roses(draw):
    """Roses modelled on ``composite_family``, X -> Y', Y -> Y X Y, E -> E X
    Y, at an exponent d in 1..3: X -> (Y' X')^(d-1) Y' and Y -> Y (X Y)^d
    fix w = X Y, and E -> E w^d, or reverse(w)^d E (normal form on E'),
    makes E X (or E' X) Nielsen, so the linear family is composite.  The
    three edges get fresh names in a drawn construction order, each in a
    drawn orientation, and a fixed edge may sit beside them."""
    d = draw(st.integers(1, 3))
    w, bar = ("X", "Y"), ("Y'", "X'")
    images = {
        "X": bar * (d - 1) + ("Y'",),
        "Y": ("Y",) + w * d,
        "E": ("E",) + w * d if draw(st.booleans()) else bar * d + ("E",),
    }
    names = draw(st.permutations(["A", "B", "C", "F"]))
    fixed = names[3:] if draw(st.booleans()) else []
    rename = {}
    for letter, name in zip("XYE", names):
        flip = draw(st.booleans())
        rename[letter], rename[letter + "'"] = (inverse(name), name) if flip else (name, inverse(name))
    out = {e: e for e in fixed}
    for letter, image in images.items():
        word = [rename[x] for x in image]
        edge = rename[letter]
        if edge.endswith("'"):
            edge, word = inverse(edge), [inverse(x) for x in reversed(word)]
        out[edge] = " ".join(word)
    return _map(_rose(names[:3] + fixed), out)


@settings(max_examples=80, deadline=None)
@given(linear_roses(), st.sampled_from([4, 6, 9, None]))
def test_closed_form_matches_generic_linear_roses(m, bound):
    assert_closed_form_matches_generic(m, bound)


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
def test_prefix_splittings_are_the_full_maps_family_maps(name):
    m = FAMILY_MAPS[name]()
    assert_prefix_splittings_are_the_full_maps(m, reached_down_sets(m, 20))


@settings(max_examples=60, deadline=None)
@given(st.one_of(arbitrary_roses(), linear_roses()), st.data())
def test_prefix_splittings_are_the_full_maps_random_roses(m, data):
    down_sets = _down_sets_or_none(m, data)
    if down_sets is not None:
        assert_prefix_splittings_are_the_full_maps(m, down_sets, zero_runs=True)


# -- the periodic list of linear maps, by lemma ---------------------------------------


def _join(image, tail, inverse_of):
    """The tight concatenation of two tight edge tuples."""
    n = 0
    while n < min(len(image), len(tail)) and image[-1 - n] == inverse_of[tail[n]]:
        n += 1
    return image[: len(image) - n] + tail[n:]


def brute_fixed_sets(m, max_len):
    """[the tight paths sigma of 1..max_len edges with f^k_#(sigma) = sigma
    for k = 1, 2, 3], by a walk over every tight path that carries its
    f^k_# images along, one edge at a time."""
    g = m.graph
    inverse_of, maps = g.inverse_of, [m]
    while len(maps) < 3:
        maps.append(compose(m, maps[-1]))
    fixed = [set() for _ in maps]
    todo = [((d,), tuple(mk.image_of[d] for mk in maps)) for d in g.directions()]
    while todo:
        edges, images = todo.pop()
        for k, image in enumerate(images):
            if image == edges:
                fixed[k].add(edges)
        if len(edges) < max_len:
            for d in g.directions(g.term(edges[-1])):
                if d != inverse_of[edges[-1]]:
                    todo.append((edges + (d,), tuple(
                        _join(image, mk.image_of[d], inverse_of)
                        for image, mk in zip(images, maps)
                    )))
    return fixed


def assert_powers_fix_only_fixed_paths(m, max_len):
    fixed_1, fixed_2, fixed_3 = brute_fixed_sets(m, max_len)
    assert fixed_1 and fixed_2 == fixed_1 and fixed_3 == fixed_1


def _tame_map(m):
    """Whether every direction that D(f^2) or D(f^3) fixes is tame."""
    filt = filtration(m)
    fixed = {d for d in m.graph.directions() if m.image_of[d] == (d,)}
    tame = fixed | {s.neg_edge for s in filt if s.linear and fixed.issuperset(s.axis.edges)}
    mk = m
    for _ in range(2):
        mk = compose(m, mk)
        if any(mk.image_of[d][0] == d and d not in tame for d in m.graph.directions()):
            return False
    return True


@settings(max_examples=20, deadline=None)
@given(linear_roses(top=False))
def test_powers_of_linear_roses_fix_only_fixed_paths(m):
    # the lemma of _search_periodic, by brute force: on a map whose every
    # edge is fixed or linear over the fixed edges, f^2 and f^3 fix exactly
    # the paths that f fixes; five-petal roses are walked to 5 edges
    assert _tame_map(m)
    assert_powers_fix_only_fixed_paths(m, 6 if len(m.graph.edge_names) < 5 else 5)


@pytest.mark.parametrize("name", ["type_e_3", "type_e_4", "type_c_4"])
def test_powers_of_the_twist_families_fix_only_fixed_paths(name):
    m = _corpus_map(name)
    assert _tame_map(m)
    assert_powers_fix_only_fixed_paths(m, 6)


@settings(max_examples=40, deadline=None)
@given(st.one_of(linear_roses(top=False), linear_roses(top=True)), st.sampled_from([4, 6, 9]))
def test_periodic_list_matches_reference_linear_roses(m, bound):
    # the skipped f^k searches against the from-scratch search on every f^k
    assert_catalog_matches_reference(m, bound)


@pytest.mark.parametrize("images, periodic, searched", [
    ({"A": "A'", "B": "B A"}, 6, 3),
    ({"A": "A", "B": "B'"}, 5, 2),
])
def test_maps_outside_the_lemma_still_search_f_squared(searches, images, periodic, searched):
    # f^2 fixes the directions of A and B, and B is neither a fixed edge nor
    # a linear one, so f^2 is searched and its period-2 paths are listed.
    # f^3 = f fixes B in the first map, so it is searched too, and only A's
    # directions in the second, so it is composed and not searched.
    cat = build_catalog(_map(_rose(["A", "B"]), images), 5)
    assert searches == {"searches": 0, "composites": 0}
    assert len(cat.periodic) == periodic and {x.period for x in cat.periodic} == {2}
    assert searches == {"searches": searched, "composites": 2}


def test_the_swap_has_no_filtration_to_search():
    # A -> B, B -> A permutes a stratum of two edges: the filtration refuses
    # it before any search
    with pytest.raises(InconsistentFiltration):
        build_catalog(_map(_rose(["A", "B"]), {"A": "B", "B": "A"}), 5)


LINEAR_CORPUS = (
    ["ladder_%d" % k for k in (25, 50, 100, 200, 400, 800)]
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)]
)


@pytest.mark.parametrize("name", LINEAR_CORPUS)
def test_periodic_list_of_the_linear_corpus_takes_no_search(searches, name):
    # work contract: f^2 and f^3 are composed, and neither is searched
    cat = build_catalog(_corpus_map(name))
    cat.generic  # the period-one search, which the periodic list reads first
    searches.update(searches=0, composites=0)
    assert cat.periodic == [] and cat.budgets_hit == ()
    assert searches == {"searches": 0, "composites": 2}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_periodic_list_of_the_samples_searches_both_powers(searches, name):
    cat = build_catalog(SAMPLES[name]())
    cat.generic  # the period-one search, which the periodic list reads first
    searches.update(searches=0, composites=0)
    cat.periodic
    assert searches == {"searches": 2, "composites": 2}


def assert_family_pairs_give_every_k_within_the_bound(m, bound=None):
    # the pairs of a family's descriptors, at f, f^2 and f^3, are the
    # members k = 1..(bound - 2) // |w|, each once, under one composite
    # flag (the lemma of nielsen._checked_family): the flag is all that
    # nielsen._search_period_one keeps of them
    linear, bound = nielsen._linear_index(m).edges, bound or default_length_bound(m)
    for mk in _powers(m):
        descriptors = _search_fixed_paths(mk, bound, linear=linear)[2]
        for e, descs in descriptors.items():
            lw = len(linear[e].w)
            want = [(k, descs[0][-1]) for k in range(1, (bound - 2) // lw + 1)]
            assert sorted(family_records_by_pairs(descs, lw, bound)) == want


@settings(max_examples=100, deadline=None)
@given(st.one_of(linear_roses(), qe_roses()), st.integers(3, 40))
def test_family_records_by_arithmetic_match_the_pairs_random(m, bound):
    try:
        filtration(m)
    except TrainTrackError:
        return
    assert_family_pairs_give_every_k_within_the_bound(m, bound)


@pytest.mark.parametrize(
    "name", sorted(SAMPLES) + LINEAR_CORPUS[:3] + sorted(FAMILY_MAPS)
    + ["type_e_%d" % n for n in range(3, 9)] + ["type_c_%d" % n for n in range(4, 8)],
)
def test_family_records_by_arithmetic_match_the_pairs_corpus(name):
    m = FAMILY_MAPS[name]() if name in FAMILY_MAPS else _corpus_map(name)
    assert_family_pairs_give_every_k_within_the_bound(m)


@pytest.mark.parametrize(
    "name", sorted(SAMPLES) + LINEAR_CORPUS[:3] + sorted(FAMILY_MAPS)
    + ["type_e_%d" % n for n in range(3, 7)] + ["type_c_%d" % n for n in range(4, 6)],
)
def test_candidates_are_asked_only_where_a_term_may_be_longer(name, monkeypatch):
    # work contract: an offset whose edge is no linear edge (which may start
    # an exceptional path) and starts no listed iNp, no linear family and no
    # connecting path has the map's one term for its edge as its only
    # candidate, so it builds no new Term
    m = FAMILY_MAPS[name]() if name in FAMILY_MAPS else _corpus_map(name)
    asked, candidates = [], nielsen._candidates

    def recording(mk, path, i, filt, inps_by_first, families):
        e = path.edges[i]
        asked.append(path.edges)
        got = candidates(mk, path, i, filt, inps_by_first, families)
        if not (e in nielsen._linear_index(mk).edges or e in inps_by_first or e in families
                or filt[filt.level(e)].kind == "zero"):
            assert got == [mk._cache["single_terms"][e]], (path.edges, i)
        return got

    monkeypatch.setattr(nielsen, "_candidates", recording)
    check_ct(m)
    try:
        disintegrate(m)
    except TrainTrackError:
        pass
    if name.startswith(("ladder", "type")):
        # each image E.u, u fixed, splits in closed form without candidates;
        # only the images of single edges, f(A) = A, take the search
        assert all(len(edges) == 1 for edges in asked)


@pytest.fixture
def guard_counts(monkeypatch):
    """Records the paths given to the exact Nielsen check and counts f_#."""
    log = {"checked": [], "apply": 0}
    check, apply_ = nielsen.is_nielsen_path, GraphMap.apply

    def counted_check(m, p):
        log["checked"].append(p.edges)
        return check(m, p)

    def counted_apply(*args):
        log["apply"] += 1
        return apply_(*args)

    monkeypatch.setattr(nielsen, "is_nielsen_path", counted_check)
    monkeypatch.setattr(GraphMap, "apply", counted_apply)
    return log


def test_ladder_family_is_checked_once(guard_counts):
    counts = []
    for k in (25, 50, 100):
        m = _ladder(k)
        filtration(m)
        guard_counts.update(checked=[], apply=0)
        cat = build_catalog(m)
        assert len(inps(cat)) == cat.bound - 2
        # B's family: one check, on its shortest member; A A, the other
        # pair, is kept unchecked (the pairing lemma)
        assert guard_counts["checked"] == [("B", "A", "B'")]
        counts.append(guard_counts["apply"])
    assert counts[0] == counts[1] == counts[2]


def test_periodic_search_checks_neither_members_nor_known_entries(monkeypatch):
    # rose_cascade's C -> C B is not tame, so f^2 and f^3 are searched;
    # there the members of B's family are dropped on sight and A A is a
    # known period-one entry: no candidate is left for the period probe
    search = nielsen._search_fixed_paths
    cat = build_catalog(rose_cascade())
    assert [x.path.edges for x in cat.generic] == [("A", "A")] and set(cat.families) == {"B"}
    found = []

    def recorded(*args):
        out = search(*args)
        found.append(out[0])
        return out

    monkeypatch.setattr(nielsen, "_search_fixed_paths", recorded)
    assert cat.periodic == []
    assert found == [[], []]


def test_a_generic_pair_giving_a_member_is_listed_once():
    # no pair outside a family's descriptors reads a member E b^k Ebar over
    # a cyclically reduced axis (the lemma of _search_fixed_paths), so each
    # member is listed once, by its family, with no fold of generic entries
    maps = [f() for _, f in sorted(FAMILY_MAPS.items())] + [
        _corpus_map(name) for name in sorted(SAMPLES) + LINEAR_CORPUS[:3]
        + ["type_e_5", "type_c_5"]]
    for m in maps:
        try:
            cat = build_catalog(m)
            cat.entries
        except TrainTrackError:
            continue
        for x in cat.generic:
            e, edges = x.path.edges[0], x.path.edges
            if e in cat.families and edges[-1] == inverse(e):
                b = cat.families[e][0]
                bodies = (b, tuple(inverse(y) for y in reversed(b)))
                k, rest = divmod(len(edges) - 2, len(b))
                assert rest or edges[1:-1] not in (bodies[0] * k, bodies[1] * k), edges
        paths = [x.path.edges for x in cat.entries]
        assert len(paths) == len(set(paths))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_stable_prefixes_are_listed_once(name):
    m = SAMPLES[name]()
    linear, bound = nielsen._linear_index(m).edges, default_length_bound(m)
    for mk in (m, compose(m, m)):
        records = _stable_prefixes(mk, bound, linear=linear)[0]
        prefixes = [r[0] for r in written_out(records, bound)]
        assert len(prefixes) == len(set(prefixes))


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses(), st.integers(4, 8))
def test_stable_prefixes_are_listed_once_arbitrary_roses(m, bound):
    prefixes = [r[0] for r in written_out(_stable_prefixes(m, bound)[0], bound)]
    assert len(prefixes) == len(set(prefixes))


# -- linear rays in closed form against the iterated rays ---------------------------


def reference_stable_prefixes(m, bound, iter_cap=None):
    """The stable prefixes as found by iterating f along every ray, linear
    ones included: (prefix edge tuple, end, suffix key, split, direction)
    and the capped rays, with the same conventions as ``_stable_prefixes``,
    which develops linear rays in closed form instead."""
    if iter_cap is None:
        iter_cap = bound + 16
    g = m.graph
    image_of, term_of, inverse_of = m.image_of, g.term_of, g.inverse_of
    dm = nielsen.direction_map(m)
    found, swept, capped = [], [], []

    def sweep(edge_seq, d):
        edge_seq = edge_seq[:bound]
        done = max(
            (nielsen._common_prefix_length(prev, edge_seq) for prev in swept), default=0
        )
        swept.append(edge_seq)
        img, agree, split = [], 0, False
        for n, e in enumerate(edge_seq, 1):
            im = image_of[e]
            if img and img[-1] == inverse_of[im[0]]:
                agree = min(agree, g.seam_extend(img, (im,)))
            else:
                img.extend(im)
            while agree < n and agree < len(img) and img[agree] == edge_seq[agree]:
                agree += 1
            if agree == n and len(img) >= n:
                split = split or len(img) == n
                if n > done:
                    rest = len(img) - n
                    key = (rest, img[n], img[-1]) if rest else (0,)
                    found.append((edge_seq[:n], term_of[e], key, split, d))

    for d in g.directions():
        if dm.map[d] != d:
            continue
        ray = g.path([d])
        seen = {}
        pending = ray
        for _ in range(iter_cap):
            nxt = m.apply(ray)
            stop = (
                nxt.is_trivial()
                or nxt.edges == ray.edges
                or nxt.edges in seen.get(len(nxt), ())
                or len(ray) > bound + 2
            )
            if not nxt.is_trivial() and not nxt.starts_with(pending):
                sweep(pending.edges, d)
                pending = nxt
            else:
                pending = nxt if not nxt.is_trivial() else pending
            if stop:
                break
            seen.setdefault(len(nxt), []).append(nxt.edges)
            ray = nxt
        else:
            capped.append((d, iter_cap))
        sweep(pending.edges, d)
    return found, capped


def written_out(records, bound):
    """The records of ``_stable_prefixes`` one per prefix, the prefix as an
    edge tuple, in ``reference_stable_prefixes`` form: a record with step
    s > 0 stands for the prefixes of lengths n, n + s, ... up to bound."""
    return [
        (ray[:k], end, key, split, d)
        for ray, n, step, end, key, split, d in records
        for k in range(n, bound + 1, step or bound)
    ]


def _linear_or_none(m):
    try:
        return nielsen._linear_index(m).edges
    except TrainTrackError:
        return None


def assert_closed_form_rays_match_iteration(m, bound=None, linear=None):
    # at f, f^2 and f^3, with f's linear axes passed as the search passes them
    bound = bound or default_length_bound(m)
    linear = linear or _linear_or_none(m)
    for mk in _powers(m):
        records, capped = _stable_prefixes(mk, bound, linear=linear)
        want, want_capped = reference_stable_prefixes(mk, bound)
        assert sorted(written_out(records, bound)) == sorted(want)
        assert capped == want_capped


def test_closed_form_rays_match_iteration_unreduced_axis():
    # E3's iterates E3 E2 E1^j E2' do not nest; each adds its own prefixes
    m = _map(_rose(["E1", "E2", "E3"]), {"E1": "E1", "E2": "E2", "E3": "E3 E2 E1 E2'"})
    assert_closed_form_rays_match_iteration(m)
    cat = build_catalog(m)
    assert len(cat.entries) == 26
    # w = E2 E1 E2' is not cyclically reduced, so E3 has no family: its one
    # tight member E3 w E3' is a generic entry
    assert cat.families == {}
    assert ("E3", "E2", "E1", "E2'", "E3'") in [x.path.edges for x in cat.generic]


def test_closed_form_rays_match_iteration_long_unreduced_axis():
    # u = (E2 E3)^3 is long enough that the iteration stops before the
    # bound on E4's spine E4 u E1 E1 ...; the closed form stops where it does
    assert_closed_form_rays_match_iteration(_long_unreduced_axis_map())


def _long_unreduced_axis_map():
    u = "E2 E3 E2 E3 E2 E3"
    return _map(
        _rose(["E1", "E2", "E3", "E4"]),
        {"E1": "E1", "E2": "E2", "E3": "E3", "E4": "E4 %s E1 E3' E2' E3' E2' E3' E2'" % u},
    )


def direct_stable_pairs(m, bound):
    """The catalog's pairs from first principles: every prefix p of every
    iterate f^j(d), j <= bound, of every fixed direction d (E4 u E1^j ubar
    for E4 on the map above, d itself for a fixed edge) with f_#(p) = p.s,
    checked with ``m.apply``; p.reverse(q) for p, q with one end and one
    s, tight and within the bound, with its indivisible flag by brute
    force."""
    g = m.graph
    prefixes = {}
    for d in g.directions():
        if m.image(d).edges[0] != d:
            continue
        ray = g.path([d])
        for _ in range(bound + 1):
            for n in range(1, min(len(ray), bound) + 1):
                p = ray.subpath(0, n)
                image = m.apply(p).edges
                if image[:n] == p.edges:
                    prefixes[p.edges] = (p.end, image[n:])
            ray = m.apply(ray)
    out = {}
    for (p, key), (q, other) in itertools.product(prefixes.items(), repeat=2):
        if key != other or p[-1] == q[-1] or len(p) + len(q) > bound:
            continue
        sigma = g.path(p + Path(g, q).reverse().edges)
        assert m.apply(sigma) == sigma
        indivisible = not any(
            is_nielsen_path(m, sigma.subpath(0, i)) for i in range(1, len(sigma))
        )
        out[norm(sigma)] = indivisible
    return out


def test_the_catalog_of_a_long_unreduced_axis_loses_no_pair():
    # the spine E4 u E1 E1 ... stops short of the bound (E4 u E1^56 and
    # E4 u E1^57 are never recorded), but no pair within the bound needs
    # them: every pair of stable prefixes is in the catalog, and no more
    m = _long_unreduced_axis_map()
    want = direct_stable_pairs(m, 64)
    got = {norm(x.path): x.indivisible for x in build_catalog(m, 64).entries}
    assert got == want
    assert (("E4",) + ("E2", "E3") * 3 + ("E1",) * 50) + ("E3'", "E2'") * 3 + ("E4'",) in got


def test_closed_form_ray_after_a_shared_prefix():
    # C's iterates C D, L A A L' (fixed) come first and share L A A with L's
    # ray, whose records start after them; its runs must start there too
    m = _map(
        _rose(["A", "C", "D", "L"]), {"A": "A", "L": "L A", "C": "C D", "D": "D' C' L A A L'"}
    )
    assert list(nielsen._linear_index(m).edges) == ["L"]
    for bound in (6, 9):
        assert_closed_form_rays_match_iteration(m, bound)


@pytest.mark.parametrize("k", range(1, 101))
def test_closed_form_rays_match_iteration_ladder(k):
    assert_closed_form_rays_match_iteration(_ladder(k))


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS) + sorted(SAMPLES))
def test_closed_form_rays_match_iteration_corpus(name):
    m = FAMILY_MAPS[name]() if name in FAMILY_MAPS else SAMPLES[name]()
    for bound in (5, 9, None):
        assert_closed_form_rays_match_iteration(m, bound)


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses(), st.integers(4, 8))
def test_closed_form_rays_match_iteration_arbitrary_roses(m, bound):
    assert_closed_form_rays_match_iteration(m, bound)


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.integers(4, 8))
def test_closed_form_rays_match_iteration_triangular_roses(m, bound):
    assert_closed_form_rays_match_iteration(m, bound)


@settings(max_examples=60, deadline=None)
@given(linear_roses(), st.sampled_from([4, 6, 9, None]))
def test_closed_form_rays_match_iteration_linear_roses(m, bound):
    assert_closed_form_rays_match_iteration(m, bound)


def test_a_linear_ray_is_never_cut():
    # B's ray under B -> B A is known in closed form: no iterate to cap
    m = _ladder(1)
    linear = nielsen._linear_index(m).edges
    records, capped = _stable_prefixes(m, 6, iter_cap=1, linear=linear)
    assert capped == []
    assert [r[0] for r in written_out(records, 6) if r[-1] == "B"] == [
        ("B",) + ("A",) * i for i in range(6)
    ]
    assert reference_stable_prefixes(m, 6, iter_cap=1)[1] == [("B", 1)]


# -- the pairing against exact suffixes ---------------------------------------------


# -- the head of a ray's last iterate -------------------------------------------------


def _seam_cancels(m, path):
    images = [m.image_of[e] for e in path.edges]
    return any(a[-1] == m.graph.inverse_of[b[0]] for a, b in zip(images, images[1:]))


def assert_image_heads_match_apply(m, max_len=2):
    """``_image_head`` against f_# cut to n edges, at f, f^2 and f^3, on the
    tight paths of length <= max_len and the first iterates of every
    direction's ray; returns the inputs with and without a cancelling seam
    (the first take the fallback)."""
    seen = {True: 0, False: 0}
    for mk in _powers(m):
        g = mk.graph
        rays = tight_paths_up_to(g, max_len)
        for d in g.directions():
            ray = g.path([d])
            for _ in range(4):
                ray = mk.apply(ray)
                if ray.is_trivial() or len(ray) > 200:
                    break
                rays.append(ray)
        for ray in rays:
            full = mk.apply(ray)
            for n in {1, 2, 5, len(full) - 1, len(full), len(full) + 1} - {0, -1}:
                head = nielsen._image_head(mk, ray, n)
                assert head.edges == full.edges[:n]
                if n >= len(full):
                    assert head == full
            seen[_seam_cancels(mk, ray)] += 1
    return seen


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_image_head_matches_apply_samples(name):
    seen = assert_image_heads_match_apply(SAMPLES[name](), 3)
    assert seen[False]
    if name in ("full_fps_map", "partial_fps_map", "swap_rose"):
        assert seen[True]


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses())
def test_image_head_matches_apply_arbitrary_roses(m):
    assert_image_heads_match_apply(m)


@settings(max_examples=60, deadline=None)
@given(triangular_roses())
def test_image_head_matches_apply_triangular_roses(m):
    assert_image_heads_match_apply(m)


@pytest.fixture
def heads_taken(monkeypatch):
    """Logs, per head of a last iterate taken, whether a seam of the
    iterate cancels, so that the whole f_# runs."""
    log = []
    head = nielsen._image_head

    def logged(m, ray, n):
        log.append(_seam_cancels(m, ray))
        return head(m, ray, n)

    monkeypatch.setattr(nielsen, "_image_head", logged)
    return log


def test_which_last_iterates_keep_the_whole_f_sharp(heads_taken):
    # (heads taken, of them with a cancelling seam) by check_ct: the rays of
    # the FPS maps run through E2 E1^k E2' and cancel there.  All are taken
    # by the search on f; the f^2 and f^3 searches read their rays' iterates
    # off the term DAG
    taken = {}
    for name in sorted(SAMPLES):
        del heads_taken[:]
        check_ct(SAMPLES[name]())
        taken[name] = (len(heads_taken), sum(heads_taken))
    assert taken == {
        "exceptional_rose": (1, 1),
        "full_fps_map": (3, 3),
        "partial_fps_map": (3, 3),
        "qe_rose": (1, 1),
        "rose_cascade": (1, 0),
        "suffix_rose": (1, 0),
        "swap_rose": (3, 0),
        "zero_stratum_map": (1, 0),
    }


def reference_pairing(m, bound, linear=None):
    """What ``_search_fixed_paths`` returns, from the records of
    ``reference_stable_prefixes`` (every ray iterated) grouped by (end
    vertex, exact suffix), the suffix f_#(p) minus p computed here, and
    paired as the search's loop pairs them; every pair is asserted
    Nielsen."""
    g = m.graph
    linear = linear or {}
    records, capped = reference_stable_prefixes(m, bound)
    groups = {}
    for p, end, _, split, d in records:
        image = m.apply(g.path(p)).edges
        assert image[: len(p)] == p
        power = None
        w = d in linear and linear[d].w
        if w and w[0] != inverse(w[-1]) and (len(p) - 1) % len(w) == 0:
            power = (d, (len(p) - 1) // len(w))
        bucket = groups.setdefault((end, image[len(p):]), {}).setdefault(p[-1], [])
        bucket.append((p, split, power))
    found, composite, families = {}, {}, {}
    for buckets in groups.values():
        lasts = sorted(buckets, key=g.order_key.__getitem__)
        for a, b in itertools.combinations(lasts, 2):
            for (p, p_split, p_power), (q, q_split, q_power) in itertools.product(
                buckets[a], buckets[b]
            ):
                if len(p) + len(q) > bound:
                    continue
                if p_power and q_power and p_power[0] == q_power[0]:
                    families.setdefault(p_power[0], []).append(
                        (p_power[1] + q_power[1], p_split or q_split)
                    )
                    continue
                sigma = g.path(p + tuple(inverse(x) for x in reversed(q)))
                assert m.apply(sigma) == sigma
                edges = min(sigma.edges, sigma.reverse().edges, key=lambda es: _path_key(g, es))
                if edges not in found:
                    found[edges] = (len(edges), _path_key(g, edges))
                    composite[edges] = p_split or q_split
    return sorted(found, key=found.get), composite, families, capped


def _path_key(g, edges):
    return [g.order_key[x] for x in edges]


def assert_pairing_matches_exact_suffixes(m, bound, linear=None):
    # the search describes family pairs; they stand for the members k =
    # 1..(bound - 2) // |w| under one flag, the records the reference pairs
    # one by one
    for mk in _powers(m):
        sigmas, composite, descriptors, capped = _search_fixed_paths(mk, bound, linear=linear)
        families = {
            e: [(k, descs[0][-1]) for k in range(1, (bound - 2) // len(linear[e].w) + 1)]
            for e, descs in descriptors.items()
        }
        want_sigmas, want_composite, want_families, want_capped = reference_pairing(
            mk, bound, linear)
        assert ([s.edges for s in sigmas], composite, capped) == (
            want_sigmas, want_composite, want_capped)
        assert families == {e: sorted(records) for e, records in want_families.items()}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pairing_matches_exact_suffixes_samples(name):
    m = SAMPLES[name]()
    assert_pairing_matches_exact_suffixes(
        m, default_length_bound(m), nielsen._linear_index(m).edges
    )


@pytest.mark.parametrize("k", range(1, 31))
def test_pairing_matches_exact_suffixes_ladder(k):
    m = _ladder(k)
    assert_pairing_matches_exact_suffixes(
        m, default_length_bound(m), nielsen._linear_index(m).edges
    )


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
def test_pairing_matches_exact_suffixes_family_maps(name):
    m = FAMILY_MAPS[name]()
    for bound in (5, 9, default_length_bound(m)):
        assert_pairing_matches_exact_suffixes(m, bound, nielsen._linear_index(m).edges)


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses(), st.integers(4, 7))
def test_pairing_matches_exact_suffixes_arbitrary_roses(m, bound):
    assert_pairing_matches_exact_suffixes(m, bound, _linear_or_none(m))


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.integers(4, 7))
def test_pairing_matches_exact_suffixes_triangular_roses(m, bound):
    assert_pairing_matches_exact_suffixes(m, bound, _linear_or_none(m))


def test_few_exact_suffixes_are_computed(monkeypatch):
    # swap_rose's f^3 lists 180 stable prefixes; their suffix keys leave
    # next to no pair to compare exactly
    growth_suffix, computed = nielsen._growth_suffix, []

    def counted(mk, p):
        computed.append(p)
        return growth_suffix(mk, p)

    monkeypatch.setattr(nielsen, "_growth_suffix", counted)
    m = swap_rose()
    f3, bound = compose(m, compose(m, m)), default_length_bound(m)
    records = _stable_prefixes(f3, bound)[0]
    _search_fixed_paths(f3, bound)
    assert len(records) == 180
    assert len(computed) <= 2


def test_a_failed_family_check_drops_the_family(monkeypatch):
    # one member decides the whole family, so a False verdict drops them all
    m = _ladder(3)
    monkeypatch.setattr(
        nielsen, "is_nielsen_path", lambda mk, p: p.edges[0] != "B" and mk.apply(p) == p
    )
    cat = build_catalog(m)
    assert _family_members(cat) == [] and inps(cat) == []


def _member_by_member(cat, n, flags):
    """The iNp index of a catalog built as if every family member of at
    most n edges were a generic entry, kept where brute force finds it
    indivisible (``flags`` keeps each verdict): both orientations of every
    generic iNp and such member, grouped by first edge, longest first."""
    g = cat.map.graph
    listed = [x for x in cat.generic if x.indivisible]
    for e, (b, height, _) in cat.families.items():
        for k in range(1, (n - 2) // len(b) + 1):
            member = Path(g, (e,) + b * k + (inverse(e),))
            if member.edges not in flags:
                flags[member.edges] = is_indivisible_by_brute_force(cat.map, member)
            if flags[member.edges]:
                listed.append(NielsenEntry(member, 1, True, height, e))
    out = {}
    for x in listed:
        for sigma in (x.path, x.path.reverse()):
            out.setdefault(sigma.edges[0], []).append(sigma)
    for lst in out.values():
        lst.sort(key=lambda sigma: -len(sigma))
    return out


def _split_requests(m, monkeypatch, audit=False):
    """(map, path, catalog) of every ``complete_split`` call made by
    ``check_ct`` and ``disintegrate`` on m (and ``stage_ranks`` when
    ``audit``), once per (catalog, path)."""
    calls = {}
    split = nielsen.complete_split

    def recording(mk, path, catalog=None, **kwargs):
        cat = catalog if catalog is not None else build_catalog(mk)
        calls.setdefault((id(cat), path.edges), (mk, path, cat))
        return split(mk, path, catalog, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(nielsen, "complete_split", recording)
        check_ct(m)
        for run in (disintegrate, stage_ranks) if audit else (disintegrate,):
            try:
                run(m)
            except TrainTrackError:
                pass
    return list(calls.values())


def _terms(splitting):
    return [
        (t.kind, t.path.edges, t.power, t.family and t.family.key())
        for t in splitting.terms
    ]


def _split_or_position(split, *args):
    try:
        return _terms(split(*args))
    except NotCompletelySplit as exc:
        return exc.position


def assert_candidates_match_member_by_member(m, monkeypatch, audit=False, paths=()):
    # families matched for every k offer the candidates, in the order, that
    # every member as long as the path, listed in both orientations, would
    # offer; ``paths`` are split besides the images the commands split
    requests = _split_requests(m, monkeypatch, audit)
    assert requests
    requests += [(m, path, build_catalog(m)) for path in paths]
    flags = {}
    for mk, path, cat in requests:
        try:
            axes(mk)
        except LViolation:
            continue  # complete_split refuses the map before any candidate
        filt = filtration(mk)
        flat = NielsenCatalog(mk, cat.bound, cat.generic, ())
        flat.__dict__["inps_by_first"] = _member_by_member(cat, len(path), flags)
        for i in range(len(path)):
            got, want = (
                [(t.kind, t.path.edges) for t in nielsen._candidates(
                    mk, path, i, filt, c.inps_by_first, c.families
                )]
                for c in (cat, flat)
            )
            assert got == want, (path.edges, i)
        for split in (complete_split, qe_split):
            assert _split_or_position(split, mk, path, cat) == _split_or_position(
                split, mk, path, flat
            )


@pytest.mark.parametrize(
    "name",
    sorted(SAMPLES)
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_candidates_match_member_by_member_corpus(name, monkeypatch):
    m = _corpus_map(name)
    assert_candidates_match_member_by_member(m, monkeypatch, audit=name.startswith("type_"))


@pytest.mark.parametrize("k", [1, 2, 3, 25, 100])
def test_candidates_match_member_by_member_ladder(k, monkeypatch):
    assert_candidates_match_member_by_member(_ladder(k), monkeypatch)


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
def test_candidates_match_member_by_member_family_maps(name, monkeypatch):
    assert_candidates_match_member_by_member(FAMILY_MAPS[name](), monkeypatch, audit=True)


def _members_past_the_bound(m):
    """Each listed family's members E b^k Ebar, in both orientations, at k
    = 1, one past the last k within the bound and twice that."""
    cat = build_catalog(m)
    out = []
    for e, (b, _, _) in cat.families.items():
        last = (cat.bound - 2) // len(b)
        for k in (1, last + 1, 2 * last + 2):
            member = m.graph.path((e,) + b * k + (inverse(e),))
            out += [member, member.reverse()]
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_roses(), qe_roses()))
def test_candidates_match_member_by_member_linear_roses(m):
    # qe_roses put a QE family into f(T); members past the bound check that
    # a family's members are matched for every k
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            paths = _members_past_the_bound(m)
        except TrainTrackError:
            paths = []
        assert_candidates_match_member_by_member(m, monkeypatch, paths=paths)


def _walked_exceptional(m):
    """{E: the exceptional families with end E}, by walking every family."""
    fams = qe_families(m)
    return {
        e: [f for f in fams if f.is_exceptional() and e in (f.e_i, f.e_j)]
        for e in m.graph.inverse_of
    }


def _candidate_keys(cands):
    return [(t.kind, t.path.edges, t.family and t.family.key()) for t in cands]


@pytest.mark.parametrize("name", ["type_c_%d" % n for n in range(4, 8)] + sorted(FAMILY_MAPS))
def test_exceptional_index_offers_the_walked_candidates(name, monkeypatch):
    # the linear index pairs each linear edge with the same-sign members of
    # its axis, as the walk over every family does, and the candidates read
    # off it are those that trying every end against every family finds
    m = FAMILY_MAPS[name]() if name in FAMILY_MAPS else _corpus_map(name)
    for mk, path, cat in _split_requests(m, monkeypatch, audit=True):
        try:
            axes(mk)
        except LViolation:
            continue
        walked = _walked_exceptional(mk)
        partners = {
            e: {f for f, d in lin.axis.members if f != e and d * lin.axis.exponent[e] > 0}
            for e, lin in nielsen._linear_index(mk).edges.items()
        }
        assert {e: fs for e, fs in partners.items() if fs} == {
            e: {f.e_j if f.e_i == e else f.e_i for f in fams} for e, fams in walked.items() if fams
        }
        filt = filtration(mk)
        for i in range(len(path)):
            got = nielsen._candidates(mk, path, i, filt, cat.inps_by_first, cat.families)
            want = reference_candidates(mk, path, i, filt, walked, cat)
            assert _candidate_keys(got) == _candidate_keys(want), (path.edges, i)


@pytest.fixture
def members_written(monkeypatch):
    """Counts the family members written out as paths."""
    log = {"members": 0}
    write = nielsen._family_members

    def counted(g, e, b, count):
        log["members"] += count
        return write(g, e, b, count)

    monkeypatch.setattr(nielsen, "_family_members", counted)
    return log


@pytest.mark.parametrize("name", ["type_e_6", "type_c_5"])
def test_stage_ranks_writes_no_member_out(name, members_written):
    m = _corpus_map(name)
    stage_ranks(m)
    assert build_catalog(m).families
    assert members_written["members"] == 0


def test_check_ct_on_the_ladder_writes_no_member_out(members_written):
    m = _ladder(100)
    report = check_ct(m)
    assert report.passed
    assert members_written["members"] == 0
    # the first read of the entries writes every member within the bound
    # out, once; clause N counted B's family, not its members
    cat = build_catalog(m)
    assert len(inps(cat)) == len(cat.entries) - 1 == cat.bound - 2
    assert members_written["members"] == cat.bound - 2
    assert report.clauses["N"].witnesses == [
        "0 indivisible Nielsen paths", "1 indivisible linear families"]


def test_nielsen_preservation_on_the_ladder_writes_no_member_out(members_written):
    # one member per linear family decides the family: the generic path
    # A A and the shortest member B A B' are the two paths checked
    m = _ladder(100)
    report = verify_nielsen_preserved(m, (2,))
    assert report.passed and report.checked_nielsen == 2
    assert members_written["members"] == 0


def test_check_fa_is_ct_writes_no_member_out(members_written):
    res = check_fa_is_ct(qe_rose(), (2, 2))
    assert res.passed and res.same_nielsen
    assert members_written["members"] == 0


@pytest.fixture
def edges_applied(monkeypatch):
    """Counts the edges that f_# (``GraphMap.apply``) writes."""
    log = {"edges": 0}
    apply = GraphMap.apply

    def counted(self, path):
        out = apply(self, path)
        log["edges"] += len(out)
        return out

    monkeypatch.setattr(GraphMap, "apply", counted)
    return log


def test_check_ct_reads_only_the_head_of_a_rays_last_iterate(edges_applied):
    # swap_rose's f^2 and f^3 rays end on iterates of ~10^5 edges when f_#
    # is taken whole (716,628 edges in all); the sweep reads 60 of them
    check_ct(swap_rose())
    assert edges_applied["edges"] <= 20000


def test_check_ct_on_the_ladder_writes_as_many_edges_as_before(edges_applied):
    # no ray of the ladder reaches a last iterate: B's is linear, A's fixed;
    # every direction of f^2 and f^3 is tame, so the f^k searches do not
    # run and the f_# edges are those of the composition of f^2 and f^3,
    # plus the one edge of f_#(A) that decides B linear (f_#(w) for the
    # root w = A of u = A^100, not f_#(u) as well)
    check_ct(_ladder(100))
    assert edges_applied["edges"] == 510


# -- the nielsen report from the families -------------------------------------------


def _entries_member_by_member(cat):
    """The catalog's period-one entries with every family member within the
    bound written out as a path first, then all sorted by (length, order
    key list)."""
    g = cat.map.graph
    members = [
        NielsenEntry(Path(g, (e,) + b * k + (inverse(e),)), 1, not composite, height, e)
        for e, (b, height, composite) in cat.families.items()
        for k in range(1, (cat.bound - 2) // len(b) + 1)
    ]
    return sorted(
        cat.generic + members, key=lambda x: (len(x.path), _path_key(g, x.path.edges))
    )


def reference_nielsen_report(m, bound):
    """The ``nielsen`` command's (ok, lines, data) as it was built member by
    member: from the written-out entries, then ``cat.periodic``."""
    cat = build_catalog(m, bound)
    entries = _entries_member_by_member(cat)
    lines = ["catalog bound %d (period bound %d)" % (cat.bound, cat.period_bound)]
    lines.append("fixed edges: %s" % (" ".join(cat.fixed_edges) or "none"))
    lines.append("indivisible Nielsen paths:")
    sizes = {}
    for entry in entries:
        if not entry.indivisible:
            continue
        if entry.family is None:
            lines.append("  %s  [height %d]" % (" ".join(entry.path.edges), entry.height))
            continue
        # a family's line stands where its first member is listed; the
        # members run from k = 1 to the bound, and on for every k
        body = cat.families[entry.family][0]
        if entry.family not in sizes:
            lines.append("  %s (%s)^k %s  for every k >= 1"
                         % (entry.family, " ".join(body), inverse(entry.family)))
        sizes.setdefault(entry.family, []).append(len(entry.path) - 2)
    for e, got in sizes.items():
        body = cat.families[e][0]
        assert sorted(got) == [len(body) * k for k in range(1, len(got) + 1)]
    if len(lines) == 3:
        lines.append("  none within bound")
    for entry in cat.periodic:
        lines.append("periodic: %s  [period %d]" % (" ".join(entry.path.edges), entry.period))
    lines.append("axes:")
    axs = axes(m)
    for ax in axs:
        lines.append(
            "  (%s): %s"
            % (" ".join(ax.word.edges),
               ", ".join("%s exponent %d" % (e, d) for e, d in ax.members))
        )
    if not axs:
        lines.append("  none")
    caveats = ["search budget hit: %s" % note for note in cat.budgets_hit]
    lines.extend("note: " + note for note in caveats)
    data = {
        "bound": cat.bound,
        "fixed_edges": list(cat.fixed_edges),
        "paths": [
            {
                "word": " ".join(x.path.edges),
                "period": x.period,
                "indivisible": x.indivisible,
                "height": x.height,
            }
            for x in entries + list(cat.periodic)
        ],
        "axes": [
            {"word": " ".join(ax.word.edges),
             "members": [{"edge": e, "exponent": d} for e, d in ax.members]}
            for ax in axs
        ],
    }
    if caveats:
        data["caveats"] = caveats
    return True, lines, data


def _report_or_error(report, m, bound):
    """(ok, text lines, JSON text) of a nielsen report, or the error raised."""
    try:
        ok, lines, data = report(m, bound)
    except TrainTrackError as exc:
        return type(exc), str(exc)
    return ok, lines, json.dumps(data, indent=2)


def _command_report(m, bound):
    doc = types.SimpleNamespace(options={} if bound is None else {"nielsen_bound": bound})
    return cli._cmd_nielsen(m, doc, types.SimpleNamespace(nielsen_bound=None))


def expand_families(data):
    """The member-wise ``paths`` of a ``nielsen`` JSON report: the members
    within the bound of every family, read off its runs of k and of
    composite k (a run with no last k goes on to the bound), then the
    listed ``paths``; each path as (word, period, indivisible, height)."""
    out = []
    for fam in data["families"]:
        e, body, height = fam["edge"], fam["body"], fam["height"]
        last_k = (data["bound"] - 2) // len(body.split())
        for key, indivisible in (("k", True), ("composite_k", False)):
            for first, last in fam[key]:
                for k in range(first, (last_k if last is None else last) + 1):
                    out.append((" ".join([e] + [body] * k + [inverse(e)]), 1, indivisible, height))
    return out + [(x["word"], x["period"], x["indivisible"], x["height"]) for x in data["paths"]]


def assert_report_matches_member_by_member(m, bound=None):
    """The command's text report is the member-by-member reference's, line
    for line.  Its JSON, every family expanded back into members, lists the
    reference's paths as a multiset; each family holds for every k >= 1
    under one flag, and the families come in the order their first members
    are listed."""
    got = _report_or_error(_command_report, m, bound)
    want = _report_or_error(reference_nielsen_report, m, bound)
    if not isinstance(got[0], bool):
        assert got == want
        return
    assert got[:2] == want[:2]
    data, ref = json.loads(got[2]), json.loads(want[2])
    assert collections.Counter(expand_families(data)) == collections.Counter(
        (x["word"], x["period"], x["indivisible"], x["height"]) for x in ref["paths"]
    )
    families = data.pop("families")
    # every other key as the reference writes it
    assert {**data, "paths": ref["paths"]} == ref
    for fam in families:
        assert sorted([fam["k"], fam["composite_k"]]) == [[], [[1, None]]]
    listed = [x.family for x in _entries_member_by_member(build_catalog(m, bound))]
    assert [fam["edge"] for fam in families] == list(
        dict.fromkeys(e for e in listed if e is not None)
    )


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_report_matches_member_by_member_samples(name):
    assert_report_matches_member_by_member(SAMPLES[name]())


@pytest.mark.parametrize("name", sorted(FAMILY_MAPS))
@pytest.mark.parametrize("bound", [5, 9, None])
def test_report_matches_member_by_member_family_maps(name, bound):
    assert_report_matches_member_by_member(FAMILY_MAPS[name](), bound)


@pytest.mark.parametrize("k", range(1, 31))
def test_report_matches_member_by_member_ladder(k):
    assert_report_matches_member_by_member(_ladder(k))


@settings(max_examples=60, deadline=None)
@given(triangular_roses(), st.sampled_from([4, 6, None]))
def test_report_matches_member_by_member_triangular_roses(m, bound):
    assert_report_matches_member_by_member(m, bound)


@settings(max_examples=60, deadline=None)
@given(linear_roses(), st.sampled_from([4, 6, 9, None]))
def test_report_matches_member_by_member_linear_roses(m, bound):
    assert_report_matches_member_by_member(m, bound)


@settings(max_examples=40, deadline=None)
@given(zero_strata_maps(), st.sampled_from([6, None]))
def test_report_matches_member_by_member_zero_strata_maps(m, bound):
    assert_report_matches_member_by_member(m, bound)


def test_listing_breaks_length_ties_by_order_key():
    # no map of the corpus lists a generic entry or a family member tied in
    # length with an item that sorts before it, so make one: two_axes' C
    # and D families listed against the order key, C A A A C' tied with
    # D B A' B D', and a made-up generic entry D A D' tied with C A C'
    m = FAMILY_MAPS["two_axes"]()
    real = build_catalog(m, 9)
    made_up = NielsenEntry(Path(m.graph, ("D", "A", "D'")), 1, True, 3)
    families = dict(reversed(real.families.items()))
    assert list(families) == ["D", "C"]
    cat = NielsenCatalog(m, 9, real.generic + [made_up], (), families)
    m._cache[("catalog", 9)] = cat
    want = [x.path.edges for x in _entries_member_by_member(cat)]
    assert want.index(("C", "A", "C'")) < want.index(("D", "A", "D'"))
    assert want.index(("C", "A", "A", "A", "C'")) < want.index(("D", "B", "A'", "B", "D'"))
    assert [x.path.edges for x in cat.entries] == want
    assert_report_matches_member_by_member(m, 9)


def _ladder_nielsen_json(k):
    """The stdout of ``nielsen --json`` on the ladder A -> A, B -> B A^k."""
    doc = {
        "name": "ladder_%d" % k,
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("A", "B")],
        "images": {"A": "A", "B": " ".join(["B"] + ["A"] * k)},
    }
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert cli.main(["nielsen", "--json"]) == 0
    return out.getvalue()


def test_nielsen_report_on_the_ladder_writes_no_member_out(members_written):
    # the family B A^j B' is one object, for every j >= 1, whatever k is
    for k in (100, 800, 3200):
        text = _ladder_nielsen_json(k)
        payload = json.loads(text)
        assert payload["families"] == [
            {"edge": "B", "body": "A", "height": 1, "k": [[1, None]], "composite_k": []}
        ]
        assert [x["word"] for x in payload["paths"]] == ["A A"]
        assert len(text.encode()) < 1024
    assert members_written["members"] == 0


# -- linear families for every k ---------------------------------------------------


def assert_families_hold_for_every_k(m):
    """Every listed family E b^k Ebar, checked member by member from k = 1 to
    twice the last k within the bound, plus 2: each member is Nielsen, is
    composite by brute force exactly when the family is, and a path holding
    it (the member read either way) splits as the reference splits it.
    The linear edges with a family are those over a cyclically reduced axis
    whose member k = 1 is within the bound and Nielsen.  Returns the number
    of members checked."""
    try:
        cat = build_catalog(m)
        axes(m)
        families = cat.families
    except TrainTrackError:
        return 0
    g, filt = m.graph, filtration(m)
    linear = nielsen._linear_index(m).edges
    assert set(families) == {
        e for e, lin in linear.items()
        if lin.w[0] != inverse(lin.w[-1]) and len(lin.w) + 2 <= cat.bound
        and is_nielsen_path(m, g.path((e,) + lin.w + (inverse(e),)))
    }
    checked = 0
    for e, (b, height, composite) in families.items():
        assert b in (linear[e].w, linear[e].bar) and height == filt.level(e)
        for k in range(1, 2 * ((cat.bound - 2) // len(b)) + 3):
            member = g.path((e,) + b * k + (inverse(e),))
            assert is_nielsen_path(m, member), member
            assert is_indivisible_by_brute_force(m, member) != composite, member
            for path in (member, member.reverse()):
                assert _split_outcome(complete_split, m, path, cat) == _split_outcome(
                    reference_complete_split, m, path, cat), path
            checked += 1
    return checked


EVERY_K_CORPUS = (sorted(SAMPLES) + ["type_e_%d" % n for n in (3, 4, 5)]
                  + ["type_c_%d" % n for n in (4, 5)])


@pytest.mark.parametrize("name", EVERY_K_CORPUS + ["ladder_%d" % k for k in (1, 2, 3)]
                         + sorted(FAMILY_MAPS))
def test_families_hold_for_every_k_corpus(name):
    m = FAMILY_MAPS[name]() if name in FAMILY_MAPS else _corpus_map(name)
    checked = assert_families_hold_for_every_k(m)
    if name.startswith(("type", "ladder")) or name in ("qe_rose", "composite_family"):
        assert checked


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_roses(), qe_roses(), composite_roses()))
def test_families_hold_for_every_k_random_roses(m):
    assert_families_hold_for_every_k(m)


@pytest.mark.parametrize("command", ["check-ct", "nielsen"])
def test_the_ladders_family_does_not_grow_with_k(command, members_written):
    # one (body, height, composite flag) per family whatever k is, and
    # neither command writes a member out
    families = []
    for k in (25, 800, 3200):
        m = _ladder(k)
        _run_command(m, [command])
        families.append(build_catalog(m).families)
    assert families == [{"B": (("A",), 1, False)}] * 3
    assert members_written["members"] == 0


@pytest.fixture
def families_checked(monkeypatch):
    """Counts the calls that reduce a family's descriptors to one checked
    family."""
    log = {"calls": 0}
    check = nielsen._checked_family

    def counted(*args):
        log["calls"] += 1
        return check(*args)

    monkeypatch.setattr(nielsen, "_checked_family", counted)
    return log


def test_periodic_search_expands_no_family_descriptor(families_checked, monkeypatch):
    # the f^2 and f^3 searches of rose_cascade (C is not tame) describe B's
    # family pairs and drop them; only the period-one search reduces them to
    # B's family, once
    cat = build_catalog(rose_cascade())
    assert families_checked["calls"] == 0
    cat.families
    assert families_checked["calls"] == 1
    search, described = nielsen._search_fixed_paths, []

    def recorded(*args):
        out = search(*args)
        described.append(out[2])
        return out

    monkeypatch.setattr(nielsen, "_search_fixed_paths", recorded)
    assert cat.periodic == []
    assert len(described) == 2 and all(set(d) == {"B"} for d in described)
    assert families_checked["calls"] == 1


# -- linear edges and axes -------------------------------------------------------


def _linear_strata(m):
    return {s.neg_edge: (s.axis.edges, s.exponent) for s in filtration(m) if s.linear}


def test_linear_edges_qe_rose():
    got = _linear_strata(qe_rose())
    assert got == {"E2": (("E1",), 2), "E3": (("E1",), 1)}


def test_linear_edges_suffix_rose():
    m = suffix_rose()
    got = _linear_strata(m)
    # C's suffix is B, which is not Nielsen, so C is NEG but not linear
    assert got == {"B": (("A",), 2), "D": (("A",), 5)}
    ax = axes(m)
    assert len(ax) == 1
    assert ax[0].word.edges == ("A",)
    assert ax[0].members == [("B", 2), ("D", 5)]


def test_linear_edge_reversed_orientation():
    f1, _ = inner_twist_pair()
    got = _linear_strata(f1)
    assert got["E2'"] == (("E1'",), 1)


def test_axes_violation_equal_exponents():
    g = _rose(["A", "B", "C"])
    m = _map(g, {"A": "A", "B": "B A", "C": "C A"})
    with pytest.raises(LViolation):
        axes(m)


def test_axes_violation_conjugate_words():
    g = _rose(["A1", "A2", "B", "C"])
    m = _map(g, {"A1": "A1", "A2": "A2", "B": "B A1 A2", "C": "C A2 A1"})
    with pytest.raises(LViolation):
        axes(m)


@given(st.lists(st.sampled_from(["A", "B", "C", "A'", "B'", "C'"]), max_size=10))
def test_circuit_key_is_the_least_rotation_in_either_orientation(word):
    g = _rose(["A", "B", "C"])
    p = g.tighten(word, base="v")
    # oracle: cyclically reduce naively, then the least of every rotation of
    # the core and of its reverse
    core = list(p.edges)
    while len(core) >= 2 and core[-1] == inverse(core[0]):
        core = core[1:-1]
    rotations = [
        tuple(g.order_key[e] for e in w[i:] + w[:i])
        for w in (core, [inverse(e) for e in reversed(core)])
        for i in range(len(w))
    ]
    assert _circuit_key(g, p.edges) == min(rotations, default=())
    assert _circuit_key(g, p.reverse().edges) == _circuit_key(g, p.edges)


def test_axes_opposite_orientation_groups_together():
    g = _rose(["A", "B", "C"])
    m = _map(g, {"A": "A", "B": "B A", "C": "C A' A'"})
    ax = axes(m)
    assert len(ax) == 1
    assert ax[0].members == [("B", 1), ("C", -2)]


def test_qe_families_qe_rose():
    fams = qe_families(qe_rose())
    assert len(fams) == 1
    fam = fams[0]
    assert (fam.e_i, fam.d_i, fam.e_j, fam.d_j) == ("E2", 2, "E3", 1)
    assert fam.is_exceptional()
    m = qe_rose()
    g = m.graph
    assert family_member(fam, 1).edges == ("E2", "E1", "E3'")
    assert fam.matches(g.path(["E2", "E1", "E1", "E3'"])) == 2
    assert fam.matches(g.path(["E3", "E2'"])) == 0
    assert fam.matches(g.path(["E3", "E1", "E2'"])) == -1
    assert fam.matches(g.path(["E2", "E1", "E2'"])) is None
    assert fam.matches(g.path(["E2", "E1"])) is None


def is_exceptional_path(m, path):
    """The exceptional (same-sign) family the path belongs to, or None."""
    for fam in qe_families(m):
        if fam.is_exceptional() and fam.matches(path) is not None:
            return fam
    return None


def test_qe_family_opposite_signs_not_exceptional():
    g = _rose(["A", "B", "C"])
    m = _map(g, {"A": "A", "B": "B A", "C": "C A'"})
    fams = qe_families(m)
    assert len(fams) == 1
    assert (fams[0].d_i, fams[0].d_j) == (1, -1)
    assert not fams[0].is_exceptional()
    assert is_exceptional_path(m, g.path(["B", "A", "C'"])) is None


def test_is_exceptional_path():
    m = qe_rose()
    g = m.graph
    assert is_exceptional_path(m, g.path(["E2", "E1", "E1", "E3'"])) is not None
    assert is_exceptional_path(m, g.path(["E2", "E1", "E2'"])) is None


# -- complete splittings ---------------------------------------------------------


def verify_splitting(m, path, terms):
    """Check a proposed splitting: the terms concatenate to the path, every
    juncture is a legal cut (see :func:`complete_split`), and the first two
    iterates split along the same points.  Returns (ok, reason), the reason
    None when ok."""
    if tuple(e for t in terms for e in t.path.edges) != path.edges:
        return False, "terms do not concatenate to the path"
    cuts, at = legal_cuts(m, path), 0
    for t in terms[:-1]:
        at += len(t.path)
        if at not in cuts:
            return False, "a juncture at an illegal turn cancels under iteration"
    probe, pieces = path, [t.path for t in terms]
    for _ in range(2):
        probe = m.apply(probe)
        pieces = [m.apply(p) for p in pieces]
        if tuple(e for p in pieces for e in p.edges) != probe.edges:
            return False, "iterate does not respect the splitting"
    return True, None


def test_complete_split_qe_rose_image():
    m = qe_rose()
    cs = complete_split(m, m.image("E4"))
    assert [t.kind for t in cs.terms] == [TERM_EDGE, TERM_EDGE, TERM_EXC]
    assert [t.path.edges for t in cs.terms] == [
        ("E4",),
        ("E3",),
        ("E3", "E2'"),
    ]


def test_complete_split_exceptional_rose_image():
    m = exceptional_rose()
    cs = complete_split(m, m.image("D"))
    assert [t.kind for t in cs.terms] == [TERM_EDGE, TERM_EXC]
    assert cs.terms[1].path.edges == ("C", "B'")


def test_complete_split_whole_exceptional():
    m = qe_rose()
    cs = complete_split(m, m.graph.path(["E2", "E1", "E1", "E3'"]))
    assert len(cs.terms) == 1 and cs.terms[0].kind == TERM_EXC


def test_complete_split_inp_terms():
    m = partial_fps_map()
    cs = complete_split(m, m.image("P"))
    kinds = [t.kind for t in cs.terms]
    assert kinds == [
        TERM_EDGE,
        TERM_INP,
        TERM_EDGE,
        TERM_INP,
        TERM_EDGE,
        TERM_INP,
        TERM_EDGE,
        TERM_EDGE,
        TERM_EDGE,
    ]
    assert cs.terms[1].path.edges == ("E2", "E1", "E2'")
    assert cs.terms[3].path.edges == ("E3", "E1", "E1", "E3'")
    assert cs.terms[5].path.edges == ("E2", "E1'", "E2'")


def test_complete_split_zero_stratum_run():
    m = zero_stratum_map()
    cs = complete_split(m, m.image("T"))
    assert any(t.kind == TERM_CONN for t in cs.terms)
    for t in cs.terms:
        if t.kind == TERM_CONN:
            assert t.path.edges in {("Z",), ("Z'",)}


def test_complete_split_edge_images_verify():
    for make in (
        rose_cascade,
        qe_rose,
        exceptional_rose,
        partial_fps_map,
        full_fps_map,
        zero_stratum_map,
    ):
        m = make()
        for e in m.graph.edge_names:
            path = m.image(e)
            cs = complete_split(m, path)
            ok, cert = verify_splitting(m, path, cs.terms)
            assert ok, (m.name, e, cert)
            assert sum(len(t.path) for t in cs.terms) == len(path)


def test_not_completely_split():
    m = rose_cascade()
    with pytest.raises(NotCompletelySplit) as ei:
        complete_split(m, m.graph.path(["B", "A'"]))
    assert ei.value.position == 1


def test_suffix_rose_top_image_does_not_split():
    # f(E) = D C B' crosses the illegal turn {C', B'} with no Nielsen or
    # exceptional piece to absorb it.
    m = suffix_rose()
    with pytest.raises(NotCompletelySplit):
        complete_split(m, m.image("E"))


def test_verify_splitting_rejects_cancellation():
    m = qe_rose()
    g = m.graph
    path = g.path(["E2", "E3'"])
    bad = [Term(TERM_EDGE, path.subpath(0, 1)), Term(TERM_EDGE, path.subpath(1, 2))]
    ok, why = verify_splitting(m, path, bad)
    assert not ok and "cancel" in why
    ok, why = verify_splitting(m, g.path(["E2", "E1"]), bad)
    assert not ok and "concatenate" in why


def test_complete_split_of_a_long_path_needs_no_deep_recursion():
    # B -> B A^1500 splits into 1,501 single-edge terms; a search that
    # recursed once per term overflowed Python's stack here.
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": ["A"], "B": ["B"] + ["A"] * 1500})
    cs = complete_split(m, m.edge_images["B"], build_catalog(m, bound=6))
    assert len(cs.terms) == 1501
    assert [t.kind for t in cs.terms] == [TERM_EDGE] * 1501


class _EveryEdge(dict):
    """An iNp index that claims every edge as a first edge, so that
    ``complete_split`` asks ``_candidates`` at every offset it expands."""

    def __contains__(self, e):
        return True


def test_complete_split_expands_each_offset_at_most_once(monkeypatch):
    # a term's end is decided by the turn there alone, so an offset that
    # failed once would fail again and is not expanded twice
    offsets = []
    candidates = nielsen._candidates

    def recording(mk, p, i, *args):
        offsets.append(i)
        return candidates(mk, p, i, *args)

    monkeypatch.setattr(nielsen, "_candidates", recording)

    def expanded(m, path, catalog=None):
        catalog = catalog or build_catalog(m)
        every = types.SimpleNamespace(
            inps_by_first=_EveryEdge(catalog.inps_by_first), families=catalog.families
        )
        offsets.clear()
        try:
            complete_split(m, path, every)
        except NotCompletelySplit:
            pass
        return list(offsets)

    # two parses reach offset 2 (the listed A B, and A | B), and the rest
    # fails at the illegal turn {C', A'}: offset 2 is expanded once
    g = MarkedGraph(["v"], [(e, "v", "v") for e in ("A", "B", "C")])
    m = GraphMap(g, {"A": ["A"], "B": ["B"], "C": ["C", "A"]})
    listed = types.SimpleNamespace(inps_by_first={"A": [g.path(["A", "B"])]}, families={})
    path = g.path(["A", "B", "C", "A'"])
    assert expanded(m, path, listed) == [0, 2, 1]
    with pytest.raises(NotCompletelySplit) as ei:
        complete_split(m, path, listed)
    assert ei.value.position == 3

    # B A^1500 splits in closed form and expands no offset; with a second
    # moving edge every offset of the long path is expanded, once
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": ["A"], "B": ["B"] + ["A"] * 1500})
    assert expanded(m, m.edge_images["B"]) == []
    assert expanded(m, g.path(["B"] + ["A"] * 1500 + ["B"])) == list(range(1502))
    for make in (qe_rose, exceptional_rose, partial_fps_map, rose_cascade):
        m = make()
        for path in tight_paths_up_to(m.graph, 5):
            seen = expanded(m, path)
            assert len(seen) == len(set(seen)), (m.name, path)


# -- the splitter against the term-per-offset reference --------------------------------


def _split_outcome(split, m, path, cat):
    """(kind, edges, family, power) per term, the furthest offset of a path
    that does not split, or the error of a map that refuses."""
    try:
        return [(t.kind, t.path.edges, t.family and t.family.key(), t.power)
                for t in split(m, path, cat).terms]
    except NotCompletelySplit as exc:
        return exc.position
    except TrainTrackError as exc:
        return type(exc), str(exc)


def assert_splits_as_the_reference(m, paths):
    try:
        cat = build_catalog(m)
    except TrainTrackError:
        return
    for path in paths:
        for split, reference in ((complete_split, reference_complete_split),
                                 (qe_split, reference_qe_split)):
            got = _split_outcome(split, m, path, cat)
            assert got == _split_outcome(reference, m, path, cat), (split.__name__, path)


def _images_and_connecting_paths(m):
    """Every edge image, both orientations, and every connecting path of a
    zero stratum with its image."""
    g = m.graph
    out = [m.image(d) for d in g.directions()]
    filt = filtration(m)
    for i, s in enumerate(filt):
        if s.kind == "zero":
            for piece in connecting_paths(m, i, filt):
                out += [piece, m.apply(piece)]
    return out


@pytest.mark.parametrize(
    "name",
    sorted(SAMPLES)
    + ["ladder_25", "ladder_100", "ladder_800"]
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_splits_as_the_reference_corpus_images(name):
    m = _corpus_map(name)
    assert_splits_as_the_reference(m, _images_and_connecting_paths(m))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_splits_as_the_reference_sample_paths(name):
    m = _corpus_map(name)
    assert_splits_as_the_reference(m, tight_paths_up_to(m.graph, 5))


@settings(max_examples=60, deadline=None)
@given(st.one_of(arbitrary_roses(), linear_roses(), triangular_roses(), zero_strata_maps(),
                 qe_roses()))
def test_splits_as_the_reference_random_roses(m):
    try:
        filtration(m)
    except InconsistentFiltration:
        return
    assert_splits_as_the_reference(
        m, _images_and_connecting_paths(m) + tight_paths_up_to(m.graph, 3)
    )


# -- the closed form of E.u, u fixed --------------------------------------------------


def assert_closed_form_is_the_reference(m, paths):
    """Every path that takes the closed form splits there as the reference
    search splits it; returns how many took it."""
    try:
        filt = filtration(m)
        axes(m)
    except TrainTrackError:
        return 0
    cat = build_catalog(m)
    taken = 0
    for path in paths:
        split = None if path.is_trivial() else nielsen._closed_split(m, filt, path)
        if split is not None:
            taken += 1
            assert split.closed and split.path is path
            # the terms are listed on the first read, and kept
            assert "terms" not in vars(split)
            got = [(t.kind, t.path.edges, None, t.power) for t in split.terms]
            assert got == _split_outcome(reference_complete_split, m, path, cat), path.edges
            assert split.terms is split.terms
    return taken


@pytest.mark.parametrize(
    "name",
    sorted(SAMPLES)
    + ["ladder_25", "ladder_100", "ladder_800"]
    + ["type_e_%d" % n for n in range(3, 9)]
    + ["type_c_%d" % n for n in range(4, 8)],
)
def test_closed_form_is_the_reference_corpus_images(name):
    m = _corpus_map(name)
    taken = assert_closed_form_is_the_reference(m, _images_and_connecting_paths(m))
    if name.startswith(("ladder", "type")):
        # every moving edge E has the image E.u with u fixed
        assert taken == sum(m.image_of[e] != (e,) for e in m.graph.edge_names)


def _moving_edge_then_fixed(m, n):
    """The tight paths E x_1 ... x_k, k < n, E not fixed and each x_i fixed."""
    g = m.graph
    fixed = [d for d in g.directions() if m.image_of[d] == (d,)]
    out = []
    frontier = [(d,) for d in g.directions() if m.image_of[d] != (d,)]
    while frontier:
        out += [g.path(edges) for edges in frontier if len(edges) > 1]
        frontier = [
            edges + (x,) for edges in frontier if len(edges) < n for x in fixed
            if g.init(x) == g.term(edges[-1]) and x != g.inverse_of[edges[-1]]
        ]
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_roses(), triangular_roses(), zero_strata_maps()))
def test_closed_form_is_the_reference_random_maps(m):
    try:
        filtration(m)
    except InconsistentFiltration:
        return
    assert_closed_form_is_the_reference(
        m, _images_and_connecting_paths(m) + _moving_edge_then_fixed(m, 4)
    )


@pytest.fixture
def work(monkeypatch):
    """Counts fixed-path searches, period-one searches and QE families."""
    log = {"searches": 0, "period_one": 0, "qe_families": 0}
    search, period_one = nielsen._search_fixed_paths, nielsen._search_period_one
    family_init = nielsen.QEFamily.__init__

    def counted_search(*args, **kwargs):
        log["searches"] += 1
        return search(*args, **kwargs)

    def counted_period_one(*args):
        log["period_one"] += 1
        return period_one(*args)

    def counted_family(self, *args):
        log["qe_families"] += 1
        family_init(self, *args)

    monkeypatch.setattr(nielsen, "_search_fixed_paths", counted_search)
    monkeypatch.setattr(nielsen, "_search_period_one", counted_period_one)
    monkeypatch.setattr(nielsen.QEFamily, "__init__", counted_family)
    return log


def _run_command(m, argv):
    doc = cli.document_from_map(m, "doc")
    with contextlib.redirect_stdout(io.StringIO()), pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        return cli.main(argv)


CLOSED_FORM_COMMANDS = (
    [("type_e_%d" % n, cmd) for n in range(3, 9) for cmd in ("disintegrate", "audit", "classify")]
    + [("type_c_%d" % n, cmd) for n in range(4, 8) for cmd in ("disintegrate", "audit", "classify")]
    + [("ladder_%d" % k, "disintegrate") for k in (25, 100, 800)]
)


@pytest.mark.parametrize("name, command", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_search_nothing(work, name, command):
    # work contract: every image these commands split is E.u with u fixed
    m = _corpus_map(name)
    mode = ["--mode", "ia" if name.startswith("type_c") else "general"]
    assert _run_command(m, [command] + (mode if command == "classify" else [])) == 0
    assert work == {"searches": 0, "period_one": 0, "qe_families": 0}


@pytest.mark.parametrize("command", ["check-ct", "nielsen"])
@pytest.mark.parametrize(
    "name", sorted(SAMPLES) + ["ladder_25", "ladder_800", "type_e_8", "type_c_7"]
)
def test_catalog_commands_search_period_one_once(work, name, command):
    # work contract: the CT check and the report read the catalog at once,
    # and its period-one search runs once; on the linear corpus f^2 and f^3
    # take no search of their own
    m = _corpus_map(name)
    _run_command(m, [command])
    assert work["period_one"] == 1
    if name not in SAMPLES:
        assert work["searches"] == 1


def test_every_splitting_of_a_map_breaking_clause_l_raises():
    # the closed form included (B -> B A A): every call raises again, as
    # does every call of axes, while a map keeping clause L gets the same
    # axes object on every call
    m = FAMILY_MAPS["same_exponent_pair"]()
    cat = build_catalog(m)
    for _ in range(2):
        with pytest.raises(LViolation):
            axes(m)
        for d in m.graph.directions():
            for split in (complete_split, qe_split):
                with pytest.raises(LViolation):
                    split(m, m.image(d), cat)
    m = qe_rose()
    assert axes(m) is axes(m)


@pytest.mark.parametrize("command", ["check-ct", "disintegrate", "audit"])
@pytest.mark.parametrize("name", ["type_e_8", "type_e_20", "type_c_7"] + sorted(SAMPLES))
def test_families_built_are_the_families_met(name, command, monkeypatch):
    # work contract: a QE family is built only where a splitting meets its
    # pair, so the families built are exactly those that qe_split terms
    # name (before the per-pair index: 78, 666 and 45 built on type E n=8,
    # n=20 and type C n=7 by check-ct, 6 on full_fps_map, none met)
    built, named = [], set()
    family_init, split = nielsen.QEFamily.__init__, nielsen.qe_split

    def counted_family(self, *args):
        built.append(self)
        family_init(self, *args)

    def naming_split(*args):
        splitting = split(*args)
        named.update(id(t.family) for t in splitting.terms if t.kind == TERM_QE)
        return splitting

    monkeypatch.setattr(nielsen.QEFamily, "__init__", counted_family)
    monkeypatch.setattr(nielsen, "qe_split", naming_split)
    _run_command(_corpus_map(name), [command])
    assert sorted(map(id, built)) == sorted(named)
    if name in ("qe_rose", "exceptional_rose"):
        assert len(built) == 1


@pytest.mark.parametrize("k", [25, 100, 800])
def test_splitting_the_ladders_images_builds_the_same_terms_at_every_k(k, monkeypatch):
    # a plain offset appends the map's one term for its edge, so splitting
    # every edge image of the ladder builds at most one term per oriented
    # edge, whatever k is (a term per offset builds 2k + 4)
    m = _ladder(k)
    cat = build_catalog(m)
    built = []
    init = nielsen.Term.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(nielsen.Term, "__init__", counted)
    for d in m.graph.directions():
        cat.image_qe_split(m.graph.path([d]))
    # B's image B A^k splits in closed form and lists its terms only when
    # read: then it adds B's term, and A's is the one already built
    assert built == [TERM_EDGE] * 3
    assert [t.path.edges for t in cat.image_qe_split(m.graph.path(["B"])).terms] == [
        ("B",)] + [("A",)] * k
    assert built == [TERM_EDGE] * 4


def test_trivial_split():
    m = qe_rose()
    cs = complete_split(m, m.graph.trivial_path("v"))
    assert cs.terms == []


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["E1", "E2", "E3", "E4", "E1'", "E2'", "E3'", "E4'"]), min_size=1, max_size=6))
def test_split_respects_iteration(word):
    m = qe_rose()
    g = m.graph
    path = g.tighten(word, base="v")
    if path.is_trivial():
        return
    try:
        cs = complete_split(m, path)
    except NotCompletelySplit:
        return
    # the defining property: images of the terms concatenate with no
    # cancellation, at every depth we care to check
    probe = path
    pieces = [t.path for t in cs.terms]
    for _ in range(3):
        probe = m.apply(probe)
        pieces = [m.apply(p) for p in pieces]
        flat = []
        for p in pieces:
            flat.extend(p.edges)
        assert tuple(flat) == probe.edges


def late_cancel_automorphism():
    """E1 -> E4' E1, E2 -> E3' E1', E3 -> E3, E4 -> E2' on the rose of rank
    4.  The images generate F_4, so the map is an automorphism.  The only
    splitting of f(E1) is E4' | E1, across the turn {E4, E1}, which Df
    makes degenerate only at its fifth iterate."""
    g = _rose(["E1", "E2", "E3", "E4"])
    return _map(g, {"E1": "E4' E1", "E2": "E3' E1'", "E3": "E3", "E4": "E2'"},
                name="late_cancel")


# The EG roses grow exponentially; past this many edges an iterate is not
# followed further, so the property is checked to k = 2|D| + 1 or to the
# first iterate longer than this, whichever comes first.
ITERATE_CAP = 2000


def _splits_under_iteration(m, path, terms, k):
    """f^j_#(path) is the concatenation of the f^j_# of its terms, j = 1..k;
    stops early (returning True) once an iterate is longer than
    ITERATE_CAP edges."""
    whole, pieces = path, [t.path for t in terms]
    for _ in range(k):
        whole = m.apply(whole)
        pieces = [m.apply(p) for p in pieces]
        if tuple(e for p in pieces for e in p.edges) != whole.edges:
            return False
        if len(whole) > ITERATE_CAP:
            return True
    return True


def test_a_splitting_that_cancels_at_the_fifth_iterate_fails_cs():
    m = late_cancel_automorphism()
    e1 = m.image("E1")
    terms = [Term(TERM_EDGE, e1.subpath(0, 1)), Term(TERM_EDGE, e1.subpath(1, 2))]
    assert _splits_under_iteration(m, e1, terms, 4)
    assert not _splits_under_iteration(m, e1, terms, 5)
    report = check_ct(m)
    assert [k for k in report.CLAUSE_ORDER if not report.clauses[k].passed] == ["CS"]


@settings(max_examples=120, deadline=None)
@given(st.one_of(arbitrary_roses(), triangular_roses(), linear_roses()))
@example(late_cancel_automorphism())
@example(_map(_rose(["E1", "E2", "E3"]), {"E1": "E3", "E2": "E1'", "E3": "E2 E3"}))
def test_a_cs_pass_splits_every_edge_image_under_iteration(m):
    # wherever clause CS passes, each edge image outside the zero strata is
    # split by its terms under f^k_# too, for k <= 2|D| + 1 (D the
    # directions), up to ITERATE_CAP edges
    try:
        report = check_ct(m)
    except TrainTrackError:
        return  # no filtration, or some f^k collapses an edge: not a graph map
    if not report.clauses["CS"].passed:
        return
    filt = filtration(m)
    k = 2 * len(m.graph.directions()) + 1
    for e in m.graph.edge_names:
        if filt[filt.level(e)].kind == "zero":
            continue
        path = m.image(e)
        terms = complete_split(m, path, build_catalog(m)).terms
        assert _splits_under_iteration(m, path, terms, k), e


# -- QE splittings ---------------------------------------------------------------


def test_qe_split_relabels_exceptional():
    m = qe_rose()
    qs = qe_split(m, m.image("E4"))
    assert [t.kind for t in qs.terms] == [TERM_EDGE, TERM_EDGE, TERM_QE]
    assert qs.terms[2].power == 0


def test_qe_split_merges_opposite_sign_run():
    g = _rose(["A", "B", "C"])
    m = _map(g, {"A": "A", "B": "B A", "C": "C A'"})
    path = g.path(["B", "A", "C'"])
    cs = complete_split(m, path)
    assert [t.kind for t in cs.terms] == [TERM_EDGE, TERM_EDGE, TERM_EDGE]
    qs = qe_split(m, path)
    assert len(qs.terms) == 1
    t = qs.terms[0]
    assert t.kind == TERM_QE and t.power == 1
    assert (t.family.e_i, t.family.e_j) == ("B", "C")


def test_qe_split_merges_longer_powers():
    m = qe_rose()
    g = m.graph
    path = g.path(["E2", "E1", "E1", "E1", "E3'"])
    qs = qe_split(m, path)
    assert len(qs.terms) == 1
    assert qs.terms[0].kind == TERM_QE and qs.terms[0].power == 3


def test_qe_split_leaves_plain_paths_alone():
    m = rose_cascade()
    qs = qe_split(m, m.image("C"))
    assert [t.kind for t in qs.terms] == [TERM_EDGE, TERM_EDGE]
