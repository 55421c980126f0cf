"""The term DAG of f^k_# (``nielsen.TermIterates``) and its three readers:
``build_fa``, ``verify_commute`` and the periodic Nielsen search.

Every DAG answer is compared with the explicit f_# code it replaces (the
oracle ``iterate`` and f_# of the built maps), every refusal is checked to
come from a map that is not a CT, and the work the readers do is pinned
by counters on ``GraphMap.apply``, ``MarkedGraph.tighten`` and
``build_fa``.
"""

import importlib
import itertools
import json
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from traintrack import cli
from traintrack.ct import check_ct
from traintrack.disintegrate import build_fa, disintegrate, verify_commute
from traintrack.errors import FaRefused, TrainTrackError
from traintrack.maps import GraphMap
from traintrack.maxrank import classify_max_rank, gen_type_e, rank_audit
from traintrack.nielsen import build_catalog, default_length_bound
from traintrack.paths import MarkedGraph

import samples
from oracles import iterate
from samples import exceptional_rose, partial_fps_map, rose_cascade
from test_cli import FA_NOT_A_MAP, run_cli, src_env
from test_nielsen import (
    _corpus_map,
    arbitrary_roses,
    linear_roses,
    triangular_roses,
    zero_strata_maps,
)

nielsen = importlib.import_module("traintrack.nielsen")
dis_module = importlib.import_module("traintrack.disintegrate")

CORPUS = sorted(samples.SAMPLES) + ["ladder_25", "type_e_3", "type_e_4", "type_e_5",
                                   "type_c_4", "type_c_5"]
# verify-commute's tuples in the benchmark: entries of 40-50 summing to 90
BENCH_TUPLES = {
    "rose_cascade": [((45,), (45,)), ((40,), (50,))],
    "qe_rose": [((45, 45), (45, 45)), ((50, 50), (40, 40))],
    "exceptional_rose": [((45, 45, 45), (45, 45, 45)), ((50, 47, 45), (40, 43, 45))],
}


def explicit_fa(m, dis, a):
    """f_a from the oracle ``iterate``, for any nonnegative tuple."""
    g = m.graph
    images = {}
    for e in g.edge_names:
        i = dis.partition.class_of_edge(e)
        images[e] = g.path([e]) if i is None else iterate(m, g.path([e]), a[i])
    return GraphMap(g, images)


def explicit_commute(m, dis, a, b):
    """{E: (f_a f_b(E) == f_(a+b)(E), f_b f_a(E) == f_(a+b)(E))} through f_#."""
    fa, fb = explicit_fa(m, dis, a), explicit_fa(m, dis, b)
    fab = explicit_fa(m, dis, tuple(x + y for x, y in zip(a, b)))
    return {
        e: (fa.apply(fb.image(e)) == fab.image(e), fb.apply(fa.image(e)) == fab.image(e))
        for e in m.graph.edge_names
    }


def tree_commute(m, dis, a, b):
    """The same from the term trees, for any nonnegative a and b; raises
    FaRefused where the DAG refuses an edge, as build_fa(a + b) does in
    verify_commute, or f_a or f_b may move a Nielsen leaf or an axis."""
    build_fa(m, (0,) * dis.M, dis)  # refuses what the DAG does not serve, whatever the tuple
    trees = dis_module._commuted_images(m, dis, a, b)
    fab = explicit_fa(m, dis, tuple(x + y for x, y in zip(a, b)))
    return {e: (ab == fab.image_of[e], ba == fab.image_of[e]) for e, (ab, ba) in trees.items()}


def assert_dag_matches_iterate(m, ks=range(9), cap=200000):
    """Length, head and whole path of every covered direction's node equal
    the oracle ``iterate``, for k in ks until an iterate passes ``cap``
    edges.  Returns (covered, directions)."""
    g = m.graph
    dag = build_catalog(m).iterates
    covered = [d for d in g.directions() if dag.refusal((d,)) is None]
    for d in covered:
        for k in ks:
            want = iterate(m, g.path([d]), k).edges
            assert dag.length((d,), k) == len(want), (d, k)
            assert dag.head((d,), k, 7) == want[:7], (d, k)
            assert dag.head((d,), k) == want, (d, k)
            if len(want) > cap:
                break
    return len(covered), len(g.directions())


# -- the DAG against the oracle iterate -----------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_dag_matches_iterate_on_the_corpus(name):
    m = _corpus_map(name)
    covered, directions = assert_dag_matches_iterate(m)
    # suffix_rose's zero-stratum edge E maps onto D C B', which does not split
    assert covered == directions - (2 if name == "suffix_rose" else 0)


@settings(max_examples=60, deadline=None)
@given(linear_roses())
def test_dag_matches_iterate_on_linear_roses(m):
    assert_dag_matches_iterate(m, range(6))


@settings(max_examples=60, deadline=None)
@given(triangular_roses())
def test_dag_matches_iterate_on_triangular_roses(m):
    try:
        disintegrate(m)
    except TrainTrackError:
        return
    assert_dag_matches_iterate(m, range(6))


@pytest.mark.parametrize("name", sorted(BENCH_TUPLES))
def test_build_fa_matches_iterate_at_the_bench_tuples(name):
    m = samples.SAMPLES[name]()
    dis = disintegrate(m)
    for a, b in BENCH_TUPLES[name]:
        for t in (a, b, tuple(x + y for x, y in zip(a, b))):
            assert build_fa(m, t, dis).edges_equal(explicit_fa(m, dis, t))


def test_deep_iterates_of_the_cascade_are_read_without_the_path():
    # f^k(C) = C . B . B A . B A A ... B A^(k-1): 1 + k + k(k-1)/2 edges
    m = rose_cascade()
    dag = build_catalog(m).iterates
    k = 10 ** 5
    assert dag.length(("C",), k) == 1 + k + k * (k - 1) // 2
    want = iterate(m, m.graph.path(["C"]), 20).edges[:100]
    assert dag.head(("C",), k, 100) == want
    assert dag.head(("C'",), k, 3) == ("A'",) * 3


def test_build_fa_at_a_2000_equals_iterate():
    m = rose_cascade()
    dis = disintegrate(m)
    assert build_fa(m, (2000,), dis).edges_equal(explicit_fa(m, dis, (2000,)))


# -- verify_commute from the term trees ---------------------------------------------


@pytest.mark.parametrize("name", sorted(samples.SAMPLES))
def test_tree_route_equals_the_explicit_comparison(name):
    # on every tuple pair with entries below 3, admissible or not
    m = samples.SAMPLES[name]()
    try:
        dis = disintegrate(m)
    except TrainTrackError:
        assert name == "suffix_rose"
        return
    tuples = list(itertools.product(range(3), repeat=dis.M))[:27]
    for a, b in itertools.product(tuples, repeat=2):
        assert tree_commute(m, dis, a, b) == explicit_commute(m, dis, a, b), (a, b)


@pytest.mark.parametrize("name", ["type_e_3", "type_e_4", "type_c_4"])
def test_tree_route_serves_the_twist_families(name):
    m = _corpus_map(name)
    dis = disintegrate(m)
    a, b = (1,) * dis.M, (2,) * dis.M
    assert tree_commute(m, dis, a, b) == explicit_commute(m, dis, a, b)
    assert all(x == (True, True) for x in tree_commute(m, dis, a, b).values())


def test_a_tuple_off_the_lattice_fails_where_the_explicit_comparison_does():
    # exceptional_rose needs 2 a_1 + 3 a_3 = 5 a_2; a = (1, 0, 0) breaks it
    m = exceptional_rose()
    dis = disintegrate(m)
    a, b = (1, 0, 0), (1, 1, 1)
    assert not dis.lattice.contains(a)
    tree = tree_commute(m, dis, a, b)
    assert tree == explicit_commute(m, dis, a, b)
    # f_b f_a(D) = f(D) = f_(a+b)(D), as a_3 = 0, but f_a f_b(D) = D C f_a(B')
    # = D C A' A' B' is not D C B'
    assert tree["D"] == (False, True)
    assert tree["B"] == tree["C"] == (True, True)


def passes_check_ct(m):
    try:
        return check_ct(m).passed
    except TrainTrackError:
        return False


def assert_tree_route_matches(m):
    """Where m disintegrates, the term trees give what f_# gives, or refuse
    a map that is not a CT."""
    try:
        dis = disintegrate(m)
    except TrainTrackError:
        return
    a, b = (1,) * dis.M, (2,) * dis.M
    try:
        tree = tree_commute(m, dis, a, b)
    except FaRefused:
        assert not passes_check_ct(m)
        return
    assert tree == explicit_commute(m, dis, a, b)


@settings(max_examples=80, deadline=None)
@given(linear_roses())
def test_tree_route_on_linear_roses(m):
    assert_tree_route_matches(m)


@settings(max_examples=80, deadline=None)
@given(triangular_roses())
def test_tree_route_on_triangular_roses(m):
    assert_tree_route_matches(m)


@settings(max_examples=60, deadline=None)
@given(arbitrary_roses())
def test_tree_route_on_arbitrary_roses(m):
    assert_tree_route_matches(m)


@settings(max_examples=60, deadline=None)
@given(zero_strata_maps())
def test_tree_route_on_zero_strata_maps(m):
    assert_tree_route_matches(m)


# -- a refusal comes from a map that is not a CT ----------------------------------------


def _fa_not_a_map():
    # pinned in test_cli: a tuple that is not constant pulls z1 apart
    return st.just(cli.parse_document(json.dumps(FA_NOT_A_MAP)).graph_map)


@pytest.mark.parametrize("maps", [linear_roses, triangular_roses, arbitrary_roses,
                                  zero_strata_maps, _fa_not_a_map])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_build_fa_and_verify_commute_refuse_only_maps_that_are_not_cts(maps, data):
    # a = b = (2, ..., 2) is admissible, as every constant tuple is, and so
    # is c = (k, ..., k) plus small multiples of the lattice basis, k the
    # least that keeps c nonnegative; a tuple that is not constant can pull
    # apart a vertex where two classes meet, which a CT never has
    m = data.draw(maps())
    try:
        dis = disintegrate(m)
    except TrainTrackError:
        return
    a = (2,) * dis.M
    steps = data.draw(st.lists(st.integers(-2, 2), min_size=dis.rank, max_size=dis.rank))
    c = [sum(s * v[i] for s, v in zip(steps, dis.lattice.basis)) for i in range(dis.M)]
    c = tuple(x - min(c + [0]) for x in c)
    for x, y in ((a, a), (c, a), (a, c)):
        try:
            build_fa(m, x, dis)
            verify_commute(m, x, y, dis)
        except FaRefused:
            assert not passes_check_ct(m)


# -- work counters ---------------------------------------------------------------------


@pytest.fixture
def work(monkeypatch):
    """Counts build_fa calls, f_# inputs (outside ``compose``, and only in
    the periodic search when ``periodic_only``) and tightened edges."""
    log = {"build_fa": 0, "apply_in": [], "tighten_in": 0, "periodic_only": False,
           "inside": 0, "composing": 0}
    apply, tighten = GraphMap.apply, MarkedGraph.tighten
    compose, periodic, fa = nielsen.compose, nielsen._search_periodic, dis_module.build_fa

    def counted_apply(self, path):
        if not log["composing"] and (log["inside"] or not log["periodic_only"]):
            log["apply_in"].append(len(path))
        return apply(self, path)

    def counted_tighten(self, edges, base=None):
        edges = tuple(edges)
        log["tighten_in"] += len(edges)
        return tighten(self, edges, base)

    def counted_compose(m1, m2):
        log["composing"] += 1
        try:
            return compose(m1, m2)
        finally:
            log["composing"] -= 1

    def counted_periodic(cat):
        log["inside"] += 1
        try:
            return periodic(cat)
        finally:
            log["inside"] -= 1

    def counted_build_fa(*args):
        log["build_fa"] += 1
        return fa(*args)

    monkeypatch.setattr(GraphMap, "apply", counted_apply)
    monkeypatch.setattr(MarkedGraph, "tighten", counted_tighten)
    monkeypatch.setattr(nielsen, "compose", counted_compose)
    monkeypatch.setattr(nielsen, "_search_periodic", counted_periodic)
    monkeypatch.setattr(dis_module, "build_fa", counted_build_fa)
    return log


@pytest.mark.parametrize("name, a, tightened", [
    ("rose_cascade", (45,), 4188),
    ("qe_rose", (45, 45), 8554),
    ("exceptional_rose", (45, 45, 45), 12829),
])
def test_verify_commute_builds_one_map_and_takes_no_f_sharp(work, name, a, tightened):
    # f_a f_b and f_b f_a come from the term trees: only f_(a+b) is built
    m = samples.SAMPLES[name]()
    dis = disintegrate(m)
    images = explicit_fa(m, dis, (90,) * dis.M).edge_images.values()
    assert sum(map(len, images)) == tightened
    work.update(build_fa=0, apply_in=[], tighten_in=0)
    assert verify_commute(m, a, a, dis)
    assert work["build_fa"] == 1
    assert work["apply_in"] == []
    # only GraphMap's tightness check of f_(a+b)'s images
    assert work["tighten_in"] == tightened


@pytest.mark.parametrize("name, calls, edges_in", [
    ("partial_fps_map", 4, 4),
    ("full_fps_map", 4, 4),
    ("swap_rose", 0, 0),
])
def test_the_periodic_search_feeds_f_sharp_no_ray_iterate(work, name, calls, edges_in):
    # the ray iterates come from the term DAG: f_# is taken only on the rays
    # of the fixed edge, and no candidate is left to probe
    work["periodic_only"] = True
    m = samples.SAMPLES[name]()
    check_ct(m)
    assert len(work["apply_in"]) == calls
    assert sum(work["apply_in"]) == edges_in
    assert max(work["apply_in"], default=0) <= default_length_bound(m) + 2


def test_linear_rays_never_build_the_dag():
    # the ladder's rays are linear or fixed, and the twist families'
    # commands read no f_a and no periodic list
    ladder = _corpus_map("ladder_25")
    check_ct(ladder)
    assert "iterates" not in vars(build_catalog(ladder))
    family = gen_type_e(4).generic
    rank_audit(family)
    classify_max_rank(family)
    assert "iterates" not in vars(build_catalog(family))


# -- the f_a document of partial_fps_map (a crash before the DAG) -------------------------


def _limit_address_space():
    limit = 1536 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_the_fa_document_of_the_partial_fps_map_runs_in_bounded_memory(tmp_path):
    # the f^2 and f^3 searches of this CT would take f_# of ray iterates of
    # hundreds of millions of edges; the term DAG reads only their heads
    doc = tmp_path / "partial_fps_map.json"
    doc.write_text(cli.document_text(cli.document_from_map(partial_fps_map())))
    code, out, _ = run_cli(["fa", "--tuple", "2,2,2", "--emit-document", str(doc)])
    assert code == 0
    fa_doc = tmp_path / "fa_2_2_2.json"
    fa_doc.write_text(out)
    for command in ("check-ct", "nielsen"):
        proc = subprocess.run(
            [sys.executable, "-m", "traintrack", command, "--json", str(fa_doc)],
            capture_output=True, text=True, env=src_env(), cwd=str(tmp_path), timeout=300,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        payload = json.loads(proc.stdout)
        assert payload["command"] == command
        assert command != "check-ct" or payload["passed"] is True
