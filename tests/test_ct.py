"""Tests for the structural train track checks."""

import pytest

from traintrack import ct
from traintrack.ct import (
    _clause_n,
    _linear_inp_shape,
    check_ct,
    connecting_paths,
    edge_period,
    nielsen_classes,
    periodic_subgraph,
    principal_vertices,
    vertex_period,
)
from traintrack.maps import GraphMap, filtration
from traintrack.maxrank import gen_type_e
from traintrack.nielsen import NielsenCatalog, NielsenEntry
from traintrack.paths import MarkedGraph, Path
from samples import (
    exceptional_rose,
    full_fps_map,
    partial_fps_map,
    qe_rose,
    rose_cascade,
    suffix_rose,
    swap_rose,
    zero_stratum_map,
)


def _rose(names):
    return MarkedGraph(["v"], [(n, "v", "v") for n in names])


def _map(g, images):
    return GraphMap(g, {e: g.path(seq.split()) for e, seq in images.items()})


def failing_clauses(report):
    return [k for k in report.CLAUSE_ORDER if not report.clauses[k].passed]


def test_structured_samples_pass():
    for factory in (
        rose_cascade,
        qe_rose,
        exceptional_rose,
        partial_fps_map,
        full_fps_map,
        zero_stratum_map,
    ):
        report = check_ct(factory())
        assert report.passed, "%s:\n%s" % (factory.__name__, report)


def test_swap_rose_not_forward_rotationless():
    r = check_ct(swap_rose()).clauses["R"]
    assert not r.passed
    assert any("period 2" in line for line in r.failures)


def test_flip_edge_violations():
    m = _map(_rose(["A", "B"]), {"A": "A", "B": "B'"})
    assert edge_period(m, "B") == 2
    assert edge_period(m, "A") == 1
    assert periodic_subgraph(m) == ("A", "B")
    report = check_ct(m)
    assert set(failing_clauses(report)) == {"R", "NEG", "N", "Per"}
    assert any("no f(E) = E.u" in f for f in report.clauses["NEG"].failures)
    assert any("pointwise" in f for f in report.clauses["Per"].failures)


def test_common_axis_equal_exponents_fails_l():
    m = _map(_rose(["A", "B", "C"]), {"A": "A", "B": "B A", "C": "C A"})
    report = check_ct(m)
    assert not report.clauses["L"].passed
    assert set(failing_clauses(report)) == {"L", "N", "CS"}


def test_unsplittable_image_fails_cs_only():
    m = _map(
        _rose(["A", "B", "C", "D", "E"]),
        {
            "A": "A",
            "B": "B A A",
            "C": "C B",
            "D": "D A A A A A",
            "E": "E D C B'",
        },
    )
    report = check_ct(m)
    assert failing_clauses(report) == ["CS"]
    assert any("not completely split" in f for f in report.clauses["CS"].failures)


def test_cs_counts_only_the_images_that_split():
    # suffix_rose with its top edge made NEG: f(E) = E D C B' crosses the
    # illegal turn {C', B'}, so four of the five images split
    m = suffix_rose()
    g = m.graph
    m = GraphMap(g, dict(m.edge_images, E=g.path(["E", "D", "C", "B'"])))
    cs = check_ct(m).clauses["CS"]
    assert [f.split(":")[0] for f in cs.failures] == ["f(E) is not completely split"]
    assert cs.witnesses == ["4 images completely split"]


def test_suffix_rose_fails_z_only():
    report = check_ct(suffix_rose())
    assert failing_clauses(report) == ["Z"]


def test_zero_stratum_fold_detected():
    g = MarkedGraph(
        ["a", "z1", "z2"],
        [
            ("A", "a", "a"),
            ("Z", "z1", "z2"),
            ("Y", "z1", "z2"),
            ("S", "z1", "a"),
            ("T", "z2", "a"),
        ],
    )
    m = _map(
        g,
        {
            "A": "A",
            "Z": "A",
            "Y": "A",
            "S": "A' T' Z' S",
            "T": "S' Z T A T' Z' S",
        },
    )
    report = check_ct(m)
    z = report.clauses["Z"]
    assert not z.passed
    assert any("immersion" in f for f in z.failures)
    assert any("non-contractible" in f for f in z.failures)


def test_zero_stratum_needs_eg_above():
    g = MarkedGraph(
        ["a", "z1", "z2"],
        [
            ("A", "a", "a"),
            ("Z", "z1", "z2"),
            ("S", "z1", "a"),
            ("T", "z2", "a"),
            ("N", "a", "a"),
        ],
    )
    m = _map(g, {"A": "A", "Z": "A", "S": "A'", "T": "A", "N": "N A"})
    report = check_ct(m)
    assert any("not EG" in f for f in report.clauses["Z"].failures)


def test_principal_vertices_on_samples():
    assert principal_vertices(qe_rose()) == ["v"]
    assert principal_vertices(partial_fps_map()) == ["v1", "v2", "v3"]
    assert principal_vertices(zero_stratum_map()) == ["a"]


def test_two_eg_directions_alone_in_class_not_principal():
    g = MarkedGraph(
        ["u", "w"],
        [("L", "u", "u"), ("P", "u", "w"), ("R", "w", "w")],
    )
    m = _map(g, {"L": "L", "P": "P R", "R": "R' P' L P R'"})
    assert vertex_period(m, "w") == 1
    assert principal_vertices(m) == ["u"]


def test_circle_of_periodic_edges_exclusion():
    g = MarkedGraph(
        ["u", "w"], [("D1", "u", "w"), ("D2", "w", "u")]
    )
    ident = _map(g, {"D1": "D1", "D2": "D2"})
    assert principal_vertices(ident) == []

    g2 = MarkedGraph(
        ["u", "w"],
        [("L", "u", "u"), ("D1", "u", "w"), ("D2", "w", "u")],
    )
    m2 = _map(g2, {"L": "L", "D1": "D1", "D2": "D2"})
    assert principal_vertices(m2) == ["u", "w"]


def test_nielsen_classes_join_by_fixed_edges():
    g = MarkedGraph(
        ["x", "y"],
        [("A", "x", "x"), ("B", "y", "y"), ("N", "x", "y")],
    )
    m = _map(g, {"A": "A", "B": "B", "N": "N"})
    assert nielsen_classes(m) == [frozenset({"x", "y"})]
    assert len(nielsen_classes(partial_fps_map())) == 3


def test_connecting_path_enumeration():
    m = zero_stratum_map()
    paths = connecting_paths(m, 1)
    assert [p.edges for p in paths] == [("Z",)]


def test_report_rendering():
    report = check_ct(qe_rose())
    lines = report.lines()
    assert lines[0] == "(R) pass"
    keys = [line.split()[0] for line in lines if line.startswith("(")]
    assert keys == ["(R)", "(V)", "(NEG)", "(L)", "(N)", "(Per)", "(Z)", "(CS)"]
    assert any(line.startswith("note:") for line in lines)
    assert "(CS) pass" in str(report)


def test_attaching_vertex_count_witness():
    report = check_ct(partial_fps_map())
    assert report.clauses["V"].witnesses == ["3 attaching vertices"]


# -- clause N on linear families ---------------------------------------------------


def _ladder(k):
    g = _rose(["A", "B"])
    return _map(g, {"A": "A", "B": " ".join(["B"] + ["A"] * k)})


def _clause_n_on(m, paths):
    """Clause N of m against a catalog that lists ``paths`` as its iNps."""
    filt = filtration(m)
    g = m.graph
    entries = [
        NielsenEntry(g.path(p.split()), 1, True, filt.height(g.path(p.split())))
        for p in paths
    ]
    return _clause_n(m, filt, NielsenCatalog(m, 12, entries, ()))


def test_clause_n_skips_the_shape_check_for_family_members(monkeypatch):
    calls = []
    shape = ct._linear_inp_shape
    monkeypatch.setattr(
        ct, "_linear_inp_shape", lambda s, sigma: calls.append(sigma) or shape(s, sigma)
    )
    report = check_ct(_ladder(6))
    assert report.clauses["N"].passed
    assert calls == []


def test_clause_n_fails_an_inp_of_non_linear_height():
    # A is a fixed stratum: an iNp A A there breaks clause N
    clause = _clause_n_on(_ladder(2), ["A A"])
    assert clause.failures == [
        "indivisible Nielsen path A A has height 0 in a non-linear fixed stratum"
    ]


def test_clause_n_fails_a_non_family_path_of_the_wrong_shape():
    clause = _clause_n_on(_ladder(2), ["B A B' A B'", "B A A B'"])
    assert clause.failures == [
        "indivisible Nielsen path B A B' A B' of linear height 1 does not read E w^k Ebar"
    ]


def test_linear_inp_shape_reverses_only_when_the_forward_reading_fails(monkeypatch):
    m = _ladder(2)
    s = filtration(m)[1]
    g = m.graph
    reversed_ = []
    reverse = Path.reverse
    monkeypatch.setattr(Path, "reverse", lambda p: reversed_.append(p.edges) or reverse(p))
    assert _linear_inp_shape(s, g.path(["B", "A", "A", "B'"]))
    assert _linear_inp_shape(s, g.path(["B", "A'", "B'"]))
    # neither B' A B nor its reverse B' A' B starts with B; read backwards,
    # B u B' is B reverse(u) B', so one reading decides and no path of
    # length two or more is reversed (the axis A is; before, the rejected
    # B' A B was reversed too)
    assert not _linear_inp_shape(s, g.path(["B'", "A", "B"]))
    assert [r for r in reversed_ if len(r) > 1] == []


# -- work contract -------------------------------------------------------------------


def _calls(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls = []
    fn = getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("name", ["type_e_8", "partial_fps_map", "zero_stratum_map", "ladder_800"])
def test_check_ct_derives_each_structure_once(name, monkeypatch):
    # principal vertices once, one period walk per edge (the periodic
    # subgraph is cached), and one components pass per filtration prefix
    # G_0..G_N plus the periodic subgraph's in the principal vertices and
    # clause Per
    m = {
        "type_e_8": lambda: gen_type_e(8).generic,
        "partial_fps_map": partial_fps_map,
        "zero_stratum_map": zero_stratum_map,
        "ladder_800": lambda: _ladder(800),
    }[name]()
    principal = _calls(monkeypatch, ct, "principal_vertices")
    walks = _calls(monkeypatch, ct, "edge_period")
    components = _calls(monkeypatch, MarkedGraph, "components")
    check_ct(m)
    assert len(principal) == 1
    assert sorted(e for _, e in walks) == sorted(m.graph.edge_names)
    assert len(components) <= len(filtration(m)) + 3


@pytest.mark.xfail(
    strict=True,
    reason="check_ct does not check that f is a homotopy equivalence: this map "
    "passes every clause, and audit reports a violation of the rank count on it",
)
def test_check_ct_fails_a_map_that_is_not_a_homotopy_equivalence():
    # the abelianised matrix [[2, 0], [2, 1]] has determinant 2, so E1 -> E1 E2
    # E2 E1, E2 -> E2 represents no element of Out(F_2)
    m = _map(_rose(["E1", "E2"]), {"E1": "E1 E2 E2 E1", "E2": "E2"})
    assert not check_ct(m).passed
