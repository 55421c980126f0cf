"""Tests for almost invariant subgraphs, the lattice, and the maps f_a."""

import importlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from traintrack.ct import check_ct
from traintrack.disintegrate import build_fa, disintegrate, lattice, verify_commute
from traintrack.errors import AdmissibilityError, InconsistentFiltration, TrainTrackError
from traintrack.maps import GraphMap, compose, dependencies, filtration, restrict
from traintrack.maxrank import gen_type_e, rank_audit
from traintrack import nielsen
from traintrack.nielsen import (
    TERM_CONN,
    TERM_EDGE,
    TERM_QE,
    NielsenCatalog,
    axes,
    build_catalog,
    qe_split,
)
from traintrack.paths import MarkedGraph
import samples
from samples import (
    exceptional_rose,
    full_fps_map,
    partial_fps_map,
    qe_rose,
    rose_cascade,
    zero_stratum_map,
)

from oracles import (
    _edge_image_candidates,
    _meet,
    check_fa_is_ct,
    family_member,
    find_tuple_representing,
    identity_map,
    inner_twist_pair,
    is_generic,
    iterate,
    reference_partition,
    reference_qe_split,
    reference_relations,
    verify_homotopy_equivalence,
    verify_nielsen_preserved,
)
from test_nielsen import (
    _corpus_map,
    _split_outcome,
    arbitrary_roses,
    linear_roses,
    qe_roses,
    triangular_roses,
    zero_strata_maps,
)


def _subgraphs(m):
    return [sorted(s) for s in disintegrate(m).partition.subgraphs]


def test_partition_of_samples():
    assert _subgraphs(rose_cascade()) == [["B", "C"]]
    assert _subgraphs(qe_rose()) == [["E2"], ["E3", "E4"]]
    assert _subgraphs(exceptional_rose()) == [["B"], ["C"], ["D"]]
    assert _subgraphs(partial_fps_map()) == [["E2"], ["E3"], ["P", "Q"]]
    assert _subgraphs(full_fps_map()) == [
        ["E2"], ["F1"], ["F2"], ["F3"], ["U", "V"],
    ]
    assert _subgraphs(zero_stratum_map()) == [["S", "T", "Z"]]


def test_all_fixed_map_has_empty_partition():
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    d = disintegrate(identity_map(g))
    assert d.M == 0 and d.rank == 0


def test_relation_rows():
    d = disintegrate(qe_rose())
    assert len(d.relations) == 1
    assert d.relations[0].row(d.M) == [-2, 2]
    d = disintegrate(exceptional_rose())
    assert [r.row(d.M) for r in d.relations] == [[-2, 5, -3]]
    assert disintegrate(rose_cascade()).relations == []
    assert disintegrate(partial_fps_map()).relations == []


def test_lattice_ranks_and_bases():
    d = disintegrate(qe_rose())
    assert d.rank == 1 and d.lattice.basis == [(1, 1)]
    assert disintegrate(exceptional_rose()).rank == 2
    d3 = disintegrate(partial_fps_map())
    assert d3.rank == 3
    assert d3.lattice.basis == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert disintegrate(full_fps_map()).rank == 5


def test_all_ones_always_in_lattice():
    for mk in (rose_cascade, qe_rose, exceptional_rose, partial_fps_map,
               full_fps_map, zero_stratum_map):
        latt = disintegrate(mk()).lattice
        assert latt.contains((1,) * latt.M)


def test_lattice_membership():
    latt = disintegrate(qe_rose()).lattice
    assert latt.contains((3, 3)) and latt.contains((-1, -1))
    assert not latt.contains((1, 2))
    latt = disintegrate(exceptional_rose()).lattice
    assert latt.contains((1, 1, 1))
    # 3*a3 = 5*a2 - 2*a1
    assert latt.contains((4, 1, -1))
    assert not latt.contains((1, 1, 2))


def test_build_fa_identity_and_iterates():
    m = qe_rose()
    d = disintegrate(m)
    f1 = build_fa(m, (1, 1), d)
    assert all(f1.image(e) == m.image(e) for e in m.graph.edge_names)
    f0 = build_fa(m, (0, 0), d)
    assert all(f0.image(e).edges == (e,) for e in m.graph.edge_names)
    f2 = build_fa(m, (2, 2), d)
    ff = compose(m, m)
    assert all(f2.image(e) == ff.image(e) for e in m.graph.edge_names)


def test_build_fa_rejects_bad_tuples():
    m = qe_rose()
    d = disintegrate(m)
    with pytest.raises(AdmissibilityError):
        build_fa(m, (1, 2), d)
    with pytest.raises(AdmissibilityError):
        build_fa(m, (-1, -1), d)
    with pytest.raises(AdmissibilityError):
        build_fa(m, (1,), d)


def test_long_orbits_of_rose_cascade():
    # f^k(C) = C B^k A^(k(k-1)/2) grows by one f_#(t) per step; f_a at
    # a = 200 must equal 200 plain applications of f_#.
    m = rose_cascade()
    d = disintegrate(m)
    assert verify_commute(m, (200,), (200,), d)
    plain = m.graph.path(["C"])
    for _ in range(200):
        plain = m.apply(plain)
    assert build_fa(m, (200,), d).image("C") == plain
    assert len(plain) == 1 + 200 + 200 * 199 // 2


def test_build_fa_mixed_classes():
    m = partial_fps_map()
    d = disintegrate(m)
    fa = build_fa(m, (2, 1, 0), d)
    assert fa.image("E2").edges == ("E2", "E1", "E1")
    assert fa.image("E3").edges == ("E3", "E1", "E1")
    assert fa.image("P").edges == ("P",)
    assert fa.image("E1").edges == ("E1",)


def test_verify_commute_samples():
    m = qe_rose()
    d = disintegrate(m)
    assert verify_commute(m, (1, 1), (2, 2), d)
    assert verify_commute(m, (0, 0), (3, 3), d)
    m = partial_fps_map()
    d = disintegrate(m)
    assert verify_commute(m, (1, 2, 3), (2, 0, 1), d)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_commuting_family_property(k, l):
    m = qe_rose()
    d = disintegrate(m)
    assert verify_commute(m, (k, k), (l, l), d)


def test_naive_split_commutes_only_on_diagonal():
    # Splitting the cascade into {B} and {C} separately is not almost
    # invariant: the map twisting B by m and C by n commutes with f on C
    # only when m = n, which is why the two strata share one class.
    m = rose_cascade()
    g = m.graph

    def naive(mB, nC):
        imgs = {
            "A": g.path(["A"]),
            "B": iterate(m, g.path(["B"]), mB),
            "C": iterate(m, g.path(["C"]), nC),
        }
        return GraphMap(g, imgs)

    for mB in range(3):
        for nC in range(3):
            fmn = naive(mB, nC)
            agree = compose(fmn, m).image("C") == compose(m, fmn).image("C")
            assert agree == (mB == nC)


def test_is_generic():
    m = qe_rose()
    d = disintegrate(m)
    assert is_generic(m, (1, 1), d)
    assert not is_generic(m, (0, 1), d)
    # collided twist exponents: a_r * d_i == a_s * d_j
    m = partial_fps_map()
    d = disintegrate(m)
    assert is_generic(m, (1, 1, 1), d)
    assert not is_generic(m, (2, 1, 1), d)


def test_verify_nielsen_preserved():
    m = qe_rose()
    d = disintegrate(m)
    rep = verify_nielsen_preserved(m, (2, 2), d)
    assert rep.passed
    assert rep.checked_nielsen > 0 and rep.checked_qe > 0
    sigma = m.graph.path(["E2", "E1", "E2'"])
    fa = build_fa(m, (2, 2), d)
    assert fa.apply(sigma) == sigma


def test_local_control_on_qe_paths():
    # Quasi-exceptional paths incident to X_2 map by f^{a_2} even though
    # they start with the X_1 edge; admissibility is what makes the twist
    # exponents match up.
    m = qe_rose()
    d = disintegrate(m)
    fam = d.relations[0].family
    a = (3, 3)
    fa = build_fa(m, a, d)
    for p in range(-2, 3):
        sigma = family_member(fam, p)
        assert fa.apply(sigma) == iterate(m, sigma, a[1])


def test_check_fa_is_ct_generic():
    m = qe_rose()
    res = check_fa_is_ct(m, (2, 2))
    assert res.passed
    assert res.same_principal and res.same_nielsen


def test_check_fa_is_ct_collision_reported():
    # (2,1,1) collides the twist exponents of E2 and E3, so f_a has two
    # linear edges with equal exponent over the same axis.
    m = partial_fps_map()
    res = check_fa_is_ct(m, (2, 1, 1))
    assert not res.passed
    assert not res.report.clauses["L"].passed


def test_find_tuple_representing_inner_twist():
    f1, f2 = inner_twist_pair()

    def target(m):
        g = m.graph
        return GraphMap(g, {
            "E1": g.path(["E1"]),
            "E2": g.path(["E2", "E1"]),
            "E3": g.path(["E3"]),
        })

    assert find_tuple_representing(f2, target(f2)) == (1, 0)
    assert find_tuple_representing(f1, target(f1)) is None


def test_find_tuple_representing_iterate():
    m = qe_rose()
    d = disintegrate(m)
    assert find_tuple_representing(m, compose(m, m), d) == (2, 2)
    assert find_tuple_representing(m, identity_map(m.graph), d) == (0, 0)
    assert find_tuple_representing(m, build_fa(m, (3, 3), d), d) == (3, 3)


@pytest.mark.parametrize("k", [64, 65, 100])
def test_find_tuple_representing_long_iterates(k):
    # f^k(B) = B A^k: the search once gave up after 64 iterates and
    # answered None from k = 65 on.
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": g.path(["A"]), "B": g.path(["B", "A"])})
    d = disintegrate(m)
    assert find_tuple_representing(m, build_fa(m, (k,), d), d) == (k,)


def test_find_tuple_representing_zero_stratum_map():
    # f^k(Z) = A for every k >= 1, an eventually periodic set of exponents
    # that the class {S, T, Z} meets with S's and T's {3}
    m = zero_stratum_map()
    d = disintegrate(m)
    assert find_tuple_representing(m, build_fa(m, (3,), d), d) == (3,)


ROUND_TRIP_TUPLES = {
    "rose_cascade": [(0,), (1,), (5,), (12,)],
    "qe_rose": [(0, 0), (1, 1), (4, 4)],
    "exceptional_rose": [(0, 0, 0), (1, 1, 1), (5, 2, 0), (6, 3, 1), (10, 4, 0)],
    "swap_rose": [(0,), (1,), (2,)],
    "partial_fps_map": [(0, 0, 0), (1, 1, 1), (2, 0, 1), (0, 3, 2), (1, 2, 2)],
    "full_fps_map": [(1, 1, 1, 1, 1), (2, 0, 1, 3, 1), (0, 0, 0, 0, 2)],
    "zero_stratum_map": [(0,), (1,), (2,), (3,)],
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_TUPLES))
def test_find_tuple_representing_round_trip(name):
    # every sample that disintegrates (suffix_rose does not)
    m = samples.SAMPLES[name]()
    d = disintegrate(m)
    for a in ROUND_TRIP_TUPLES[name]:
        assert d.lattice.contains(a) and min(a) >= 0, a
        assert find_tuple_representing(m, build_fa(m, a, d), d) == a


def test_find_tuple_representing_names_an_undetermined_class():
    # f(B) = B' flips B, so f^k(B) = B for every even k: no exponent is
    # singled out, and the class is named instead of answering None
    g = MarkedGraph(["v"], [("A", "v", "v"), ("B", "v", "v")])
    m = GraphMap(g, {"A": ["A"], "B": ["B'"]})
    d = disintegrate(m)
    with pytest.raises(TrainTrackError, match=r"every exponent 0 \+ 2j fits class X_1 \{B\}"):
        find_tuple_representing(m, build_fa(m, (2,), d), d)


def _in_exponent_set(k, s):
    if s is None:
        return False
    start, period = s
    return k == start or (period > 0 and k > start and (k - start) % period == 0)


exponent_sets = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 12), st.integers(0, 6)),
)


@settings(max_examples=300, deadline=None)
@given(exponent_sets, exponent_sets)
def test_meet_of_eventually_periodic_sets(x, y):
    meet = _meet(x, y)
    for k in range(120):
        both = _in_exponent_set(k, x) and _in_exponent_set(k, y)
        assert _in_exponent_set(k, meet) == both, k


def test_edge_image_candidates_of_the_zero_stratum_edge():
    # f(Z) = A and f(A) = A: Z itself at k = 0, then A from k = 1 on
    m = zero_stratum_map()
    g = m.graph
    cands = _edge_image_candidates
    assert cands(m, "Z", g.path(["A"])) == (1, 1)
    assert cands(m, "Z", g.path(["Z"])) == (0, 0)
    assert cands(m, "Z", g.path(["A", "A"])) is None


@settings(max_examples=60, deadline=None)
@given(st.one_of(linear_roses(), triangular_roses()), st.data())
def test_find_tuple_representing_round_trip_random_roses(m, data):
    # preconditions: m is a CT and disintegrates
    assume(check_ct(m).passed)
    try:
        d = disintegrate(m)
    except TrainTrackError:
        assume(False)
    latt = d.lattice
    a = [0] * d.M
    for v in latt.basis:
        c = data.draw(st.integers(-3, 3))
        a = [x + c * y for x, y in zip(a, v)]
    low = min(a, default=0)
    a = tuple(x - low for x in a)
    assume(max(a, default=0) <= 12)
    shift = data.draw(st.integers(0, 12 - max(a, default=0)))
    a = tuple(x + shift for x in a)
    assert latt.contains(a) and min(a, default=0) >= 0
    assert find_tuple_representing(m, build_fa(m, a, d), d) == a


ORBIT_MAPS = (
    [name for name in sorted(samples.SAMPLES) if name != "suffix_rose"]
    + ["type_e_%d" % n for n in range(3, 6)]
    + ["type_c_%d" % n for n in (4, 5)]
)


@pytest.mark.parametrize("name", ORBIT_MAPS)
def test_class_edge_orbits_never_shrink(name):
    # the condition a None of _edge_image_candidates rests on: once an
    # iterate of a class edge outgrows the target, no later one is the
    # target (every sample that disintegrates; suffix_rose does not)
    m = _corpus_map(name)
    for sub in disintegrate(m).partition.subgraphs:
        for e in sub:
            path = m.graph.path([e])
            for _ in range(8):
                image = m.apply(path)
                assert len(image) >= len(path), (e, path.edges)
                path = image


def test_edge_image_splittings_are_computed_once(monkeypatch):
    # partition, relations and the preservation check all read the
    # QE-splittings of the same edge images
    nielsen_mod = importlib.import_module("traintrack.nielsen")
    qe_split_once = nielsen_mod.qe_split
    split = []

    def counting(m, path, catalog=None):
        split.append(path.edges)
        return qe_split_once(m, path, catalog)

    monkeypatch.setattr(nielsen_mod, "qe_split", counting)
    m = exceptional_rose()
    d = disintegrate(m)
    assert verify_nielsen_preserved(m, (1, 1, 1), d).passed
    assert split and len(split) == len(set(split))


def test_partition_soundness():
    # Every non-fixed edge or connecting-path term in the image splitting
    # of a class member stays inside that class.
    for mk in (rose_cascade, qe_rose, exceptional_rose, partial_fps_map,
               full_fps_map, zero_stratum_map):
        m = mk()
        d = disintegrate(m)
        part = d.partition
        for i, sub in enumerate(part.subgraphs):
            for e in sorted(sub, key=m.graph.edge_index):
                for t in qe_split(m, m.image(e), d.catalog).terms:
                    if t.kind not in (TERM_EDGE, TERM_CONN):
                        continue
                    j = part.class_of_edge(t.path.edges[0])
                    if j is not None:
                        assert j == i, (m.name, e, t.path.edges)


def test_verify_homotopy_equivalence():
    m = qe_rose()
    d = disintegrate(m)
    assert verify_homotopy_equivalence(build_fa(m, (3, 3), d))
    assert verify_homotopy_equivalence(identity_map(m.graph))
    assert not verify_homotopy_equivalence(zero_stratum_map())


@settings(max_examples=20, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5))
def test_lattice_closed_under_addition(x, y):
    latt = disintegrate(exceptional_rose()).lattice
    b1, b2 = latt.basis
    vec = tuple(x * u + y * v for u, v in zip(b1, b2))
    assert latt.contains(vec)


# -- the edge digests against the term walk ----------------------------------------


def all_down_sets(m):
    """Every invariant union of strata of m's filtration, the empty one
    excluded, as edge lists: each stratum is taken or left, in filtration
    order, and taken only over the strata its edges reach."""
    filt = filtration(m)
    reach = dependencies(m)
    below = [{filt.level(x) for e in s.edges for x in reach[e]} - {i} for i, s in enumerate(filt)]
    out = [[]]
    for i in range(len(filt)):
        out += [d + [i] for d in out if below[i] <= set(d)]
    return [[e for i in d for e in filt[i].edges] for d in out if d]


def _disintegration_outcome(m, cat, edges, read):
    """(classes, relations, lattice basis) of f|S by one reading, or the
    error it raises."""
    try:
        part, rels = read(m, cat, restrict(m, edges))
    except TrainTrackError as exc:
        return type(exc), str(exc)
    rows = [(r.r, r.s, r.t, r.d_i, r.d_j, r.family.key()) for r in rels]
    return part.classes, rows, lattice(rels, part.M).basis


def _from_digests(m, cat, filt):
    dis = disintegrate(m, cat, [e for s in filt for e in s.edges])
    return dis.partition, dis.relations


def _by_term_walk(m, cat, filt):
    part = reference_partition(m, cat, filt)
    return part, reference_relations(m, part, cat)


def assert_digests_match_the_term_walk(m):
    try:
        cat = build_catalog(m)
    except TrainTrackError:
        return
    for edges in all_down_sets(m):
        got = _disintegration_outcome(m, cat, edges, _from_digests)
        assert got == _disintegration_outcome(m, cat, edges, _by_term_walk), edges


@pytest.mark.parametrize(
    "name",
    sorted(samples.SAMPLES)
    + ["type_e_%d" % n for n in range(3, 8)]
    + ["type_c_%d" % n for n in range(4, 7)],
)
def test_digests_match_the_term_walk_on_every_down_set(name):
    assert_digests_match_the_term_walk(_corpus_map(name))


def test_every_down_set_of_type_e_is_enumerated():
    # E1 is fixed and each of the other 2n - 3 edges twists around it alone
    assert len(all_down_sets(_corpus_map("type_e_5"))) == 2 ** 7


@settings(max_examples=60, deadline=None)
@given(st.one_of(arbitrary_roses(), linear_roses(), triangular_roses(), zero_strata_maps(),
                 qe_roses()))
def test_digests_match_the_term_walk_random_maps(m):
    try:
        filtration(m)
    except InconsistentFiltration:
        return
    assert_digests_match_the_term_walk(m)


def _walked_digest(m, cat, e):
    """(firsts, families) of f(e) by walking the terms of the reference
    QE-splitting."""
    terms = reference_qe_split(m, m.image(e), cat).terms
    firsts = dict.fromkeys(
        t.path.edges[0] for t in terms
        if t.kind in (TERM_EDGE, TERM_CONN) and m.image_of[t.path.edges[0]] != t.path.edges[:1]
    )
    return tuple(firsts), tuple(dict.fromkeys(t.family.key() for t in terms if t.kind == TERM_QE))


def _digest_keys(digest):
    firsts, families = digest
    return firsts, tuple(fam.key() for fam in families)


@settings(max_examples=80, deadline=None)
@given(st.one_of(linear_roses(), triangular_roses(), qe_roses()))
def test_families_built_per_pair_give_what_the_walk_over_every_family_gives(m):
    # the splitter builds a QE family only where a splitting meets its pair,
    # off the map's linear index; the oracle walks every pair of every axis
    # at once: the QE-splittings, the edge digests and the relations agree
    # (qe_roses put a QE family into every f(T); the other two seldom meet one)
    try:
        cat = build_catalog(m)
        axes(m)
    except TrainTrackError:
        return
    filt = filtration(m)
    for e in m.graph.edge_names:
        if filt[filt.level(e)].kind == "zero":
            continue
        got = _split_outcome(qe_split, m, m.image(e), cat)
        assert got == _split_outcome(reference_qe_split, m, m.image(e), cat), e
        if isinstance(got, list):
            assert _digest_keys(cat.edge_digest(e)) == _walked_digest(m, cat, e), e
    edges = list(m.graph.edge_names)
    assert _disintegration_outcome(m, cat, edges, _from_digests) == _disintegration_outcome(
        m, cat, edges, _by_term_walk)


CLOSED_CORPUS = (["ladder_25", "ladder_100", "ladder_800"]
                 + ["type_e_%d" % n for n in range(3, 9)]
                 + ["type_c_%d" % n for n in range(4, 8)])


@pytest.mark.parametrize("name", CLOSED_CORPUS)
def test_closed_form_digests_match_the_term_walk(name):
    # every moving image there reads E.u with u fixed: its splitting is
    # marked closed and its digest ((E,), ()) is the walked one
    m = _corpus_map(name)
    cat = build_catalog(m)
    moving = [e for e in m.graph.edge_names if m.image_of[e] != (e,)]
    assert moving
    for e in moving:
        assert cat.image_qe_split(m.graph.path([e])).closed
        assert _digest_keys(cat.edge_digest(e)) == _walked_digest(m, cat, e) == (
            (m.image_of[e][0],), ())


class _WatchedTerms(list):
    """A term list that records every walk over it."""

    walks = []

    def __iter__(self):
        self.walks.append(len(self))
        return super().__iter__()

    def __getitem__(self, i):
        self.walks.append(len(self))
        return super().__getitem__(i)


@pytest.mark.parametrize("name", ["type_e_6", "type_c_5", "ladder_100"])
def test_closed_form_digests_walk_no_term_but_split_each_image_once(name, monkeypatch):
    m = _corpus_map(name)
    calls = {"complete_split": 0, "qe_split": 0}
    complete, qe = nielsen.complete_split, nielsen.qe_split

    def counted_complete(m, path, catalog=None):
        calls["complete_split"] += 1
        split = complete(m, path, catalog)
        split.terms = _WatchedTerms(split.terms)
        return split

    def counted_qe(m, path, catalog=None):
        calls["qe_split"] += 1
        return qe(m, path, catalog)

    monkeypatch.setattr(nielsen, "complete_split", counted_complete)
    monkeypatch.setattr(nielsen, "qe_split", counted_qe)
    monkeypatch.setattr(_WatchedTerms, "walks", [])
    disintegrate(m, build_catalog(m))
    moving = sum(m.image_of[e] != (e,) for e in m.graph.edge_names)
    assert calls == {"complete_split": moving, "qe_split": moving}
    assert _WatchedTerms.walks == []


def test_audit_reads_the_digests_and_splits_no_image_again(monkeypatch):
    # once one disintegration has read every edge's digest, the audit's
    # prefix disintegrations on type E n=8 ask for no splitting
    m = gen_type_e(8).generic
    cat = build_catalog(m)
    disintegrate(m, cat)
    asked = []
    split = NielsenCatalog.image_qe_split

    def counted(self, piece):
        asked.append(piece.edges)
        return split(self, piece)

    monkeypatch.setattr(NielsenCatalog, "image_qe_split", counted)
    audit = rank_audit(m, cat)
    assert audit.passed and len(audit.ranks) == len(filtration(m)) + 1
    assert asked == []
