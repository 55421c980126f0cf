import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import traintrack
from traintrack.cli import (
    CLOSED_STDOUT,
    _DISPATCH,
    _build_parser,
    _parse_args,
    document_from_map,
    document_text,
    export_dot,
    main,
    parse_document,
)
from traintrack.errors import InputError

import samples


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def sample_text(name):
    return document_text(document_from_map(getattr(samples, name)()))


def sample_file(tmp_path, name):
    p = tmp_path / ("%s.json" % name)
    p.write_text(sample_text(name))
    return str(p)


# -- parsing and serialization ---------------------------------------------------


@pytest.mark.parametrize(
    "name", ["rose_cascade", "qe_rose", "partial_fps_map", "full_fps_map"]
)
def test_document_round_trip_is_identity(name):
    text = sample_text(name)
    doc = parse_document(text, "%s.json" % name)
    assert document_text(document_from_map(doc.graph_map, name=doc.name)) == text


def test_parse_rejects_bad_json_with_line_and_column():
    with pytest.raises(InputError) as exc:
        parse_document("{ nope", "broken.json")
    assert "broken.json line 1 column" in exc.value.position


def _mutated(mutate):
    doc = json.loads(sample_text("qe_rose"))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "mutate, message, position",
    [
        (lambda d: d.pop("images"), "missing field 'images'", "doc.json"),
        (lambda d: d.update(bogus=1), "unknown field 'bogus'", "doc.json"),
        (lambda d: d["images"].update(E2="E2 E9"), "unknown edge 'E9'", "images.E2"),
        (lambda d: d["images"].update(E9="E1"), "unknown edge 'E9'", "images.E9"),
        (lambda d: d["images"].update(E2=""), "empty edge word", "images.E2"),
        (
            lambda d: d.update(filtration=[["E2"], ["E1"], ["E3"], ["E4"]]),
            "declared filtration does not match",
            "filtration",
        ),
        (
            lambda d: d.update(nielsen_paths=["E2 E1"]),
            "not a Nielsen path",
            "nielsen_paths[0]",
        ),
        (
            lambda d: d.update(options={"frobnicate": 3}),
            "unknown option 'frobnicate'",
            "options",
        ),
        (
            lambda d: d.update(options={"nielsen_bound": -1}),
            "positive integer",
            "options",
        ),
        (
            # the splitting check reads only turn legality, with no depth
            lambda d: d.update(options={"split_depth": 4}),
            "unknown option 'split_depth'",
            "options",
        ),
    ],
)
def test_parse_errors_carry_position_tags(mutate, message, position):
    with pytest.raises(InputError) as exc:
        parse_document(_mutated(mutate), "doc.json")
    assert message in str(exc.value)
    assert exc.value.position == position


def test_parse_rejects_non_incident_edge_word():
    text = json.dumps(
        {
            "vertices": ["u", "v"],
            "edges": [
                {"name": "A", "from": "u", "to": "v"},
                {"name": "B", "from": "u", "to": "v"},
                {"name": "C", "from": "u", "to": "u"},
            ],
            "images": {"A": "A B", "B": "B", "C": "C"},
        }
    )
    with pytest.raises(InputError) as exc:
        parse_document(text, "doc.json")
    assert exc.value.position == "images.A"


def test_parse_accepts_verified_declared_data():
    doc = json.loads(sample_text("qe_rose"))
    doc["filtration"] = [["E1"], ["E2"], ["E3"], ["E4"]]
    doc["nielsen_paths"] = ["E2 E1 E2'", "E3 E1 E3'"]
    doc["options"] = {"nielsen_bound": 12}
    parsed = parse_document(json.dumps(doc), "ok.json")
    assert parsed.options == {"nielsen_bound": 12}
    assert parsed.name == "qe_rose"


# -- worked examples from the interface contract -----------------------------------


def test_rank_summary_line(tmp_path):
    code, out, _ = run_cli(["rank", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert "M=2, relations=1, rank(D)=1" in out


def test_verify_commute_passes_on_admissible_pair(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    code, out, _ = run_cli(["verify-commute", path, "--a", "1,1", "--b", "2,2"])
    assert code == 0
    assert "pass" in out


def test_verify_commute_rejects_inadmissible_tuple(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    code, _, err = run_cli(["verify-commute", path, "--a", "1,2", "--b", "2,2"])
    assert code == 2


# Maps that load but are not CTs, each found by hypothesis (the first two
# from zero_strata_maps and arbitrary_roses, the third from
# zero_strata_maps), on which the term DAG refuses an edge.  The paper
# defines f_a only for a CT, so fa and verify-commute refuse them, naming
# the edge and the hypothesis of the DAG's lemma that fails; before, the
# first printed f_a and a FAIL that read like a counterexample to
# f_a f_b = f_(a+b), and the third printed f_(1) but failed verify-commute
# on an f_(4) image that was not tight.
REFUSED_FA = {
    "fa_refused_zero": (
        {"name": "fa_refused_zero", "vertices": ["a", "z1", "z2"],
         "edges": [{"name": "A", "from": "a", "to": "a"}, {"name": "B", "from": "a", "to": "a"},
                   {"name": "Z1", "from": "a", "to": "z1"}, {"name": "Z2", "from": "a", "to": "z2"},
                   {"name": "T2", "from": "z1", "to": "z1"},
                   {"name": "T3", "from": "z1", "to": "z2"},
                   {"name": "T1", "from": "z1", "to": "z1"}],
         "images": {"A": "A", "B": "B A", "Z1": "B A'", "Z2": "A", "T2": "A", "T3": "A",
                    "T1": "Z1 T1 Z1' A"}},
        ("1,3", "2,5"), "Z1", "f(Z1): path <path B A'> is not completely split",
    ),
    "fa_refused_rose": (
        {"name": "fa_refused_rose", "vertices": ["v"],
         "edges": [{"name": "E%d" % i, "from": "v", "to": "v"} for i in range(1, 5)],
         "images": {"E1": "E1'", "E2": "E1 E3'", "E3": "E1'", "E4": "E4"}},
        ("1,3", "2,5"), "E2", "f(E2): path <path E1 E3'> is not completely split",
    ),
    "fa_refused_cancel": (
        {"name": "fa_refused_cancel", "vertices": ["a", "z1", "z2"],
         "edges": [{"name": "T1", "from": "z1", "to": "z1"},
                   {"name": "T2", "from": "z2", "to": "z1"},
                   {"name": "A", "from": "a", "to": "a"}, {"name": "Z2", "from": "a", "to": "z2"},
                   {"name": "Z1", "from": "a", "to": "z1"}, {"name": "B", "from": "a", "to": "a"}],
         "images": {"T1": "B", "T2": "Z1 T1 Z1' A' Z2 T2 T1 Z1'", "A": "A", "Z2": "B'",
                    "Z1": "B'", "B": "B"}},
        ("1", "3"), "T2", "f(Z1 T1 Z1'): f_# cancels at an end, to <path B>",
    ),
}


@pytest.mark.parametrize("command", ["fa", "fa --emit-document", "verify-commute"])
@pytest.mark.parametrize("name", sorted(REFUSED_FA))
def test_fa_and_verify_commute_refuse_a_map_the_term_dag_refuses(tmp_path, name, command):
    doc, (a, b), edge, why = REFUSED_FA[name]
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(doc))
    tuples = ["--tuple", a] if command.startswith("fa") else ["--a", a, "--b", b]
    code, out, err = run_cli(command.split() + tuples + [str(path)])
    assert code == 2
    assert "Traceback" not in out + err
    assert out.strip() == (
        "verification error: f_a is defined only for a CT, and the term lemma fails at %s: %s"
        % (edge, why)
    )


@pytest.mark.parametrize("name", sorted(REFUSED_FA))
def test_the_maps_the_term_dag_refuses_are_not_cts(tmp_path, name):
    path = tmp_path / (name + ".json")
    path.write_text(json.dumps(REFUSED_FA[name][0]))
    assert run_cli(["check-ct", str(path)])[0] == 2


# A zero_strata_maps draw that is not a CT: its classes X_1 = {Z1} and X_2
# meet at z1, which f sends to a, so at a tuple (0, 1) no map acts as f^0
# on Z1 and as f on T3.  fa used to stop on GraphMap's vertex check ("edge
# images disagree about the image of vertex 'z1'"); it now refuses by name.
FA_NOT_A_MAP = {
    "name": "fa_not_a_map", "vertices": ["a", "z1", "z2", "z3"],
    "edges": [{"name": "Z2", "from": "a", "to": "z2"}, {"name": "Z1", "from": "a", "to": "z1"},
              {"name": "T2", "from": "z3", "to": "z2"}, {"name": "B", "from": "a", "to": "a"},
              {"name": "A", "from": "a", "to": "a"}, {"name": "T3", "from": "z2", "to": "z1"},
              {"name": "Z3", "from": "a", "to": "z3"}, {"name": "T1", "from": "z2", "to": "z3"}],
    "images": {"Z2": "B B A", "Z1": "B'",
               "T2": "Z3 T1' Z2' Z3 T1' T2' Z3' Z2 T1 Z3' Z2 T2' Z3'",
               "B": "B", "A": "A", "T3": "A", "Z3": "A", "T1": "B' Z3 T1' Z2'"},
}


@pytest.mark.parametrize("argv, pulled", [
    (["fa", "--tuple", "0,1"], "f^0 sends to z1 and f^1 to a"),
    (["fa", "--emit-document", "--tuple", "0,1"], "f^0 sends to z1 and f^1 to a"),
    (["fa", "--tuple", "1,0"], "f^1 sends to a and f^0 to z1"),
    (["verify-commute", "--a", "0,1", "--b", "1,0"], "f^0 sends to z1 and f^1 to a"),
    (["verify-commute", "--a", "1,1", "--b", "1,0"], "f^1 sends to a and f^0 to z1"),
])
def test_fa_refuses_where_two_classes_pull_a_vertex_apart(tmp_path, argv, pulled):
    path = tmp_path / "fa_not_a_map.json"
    path.write_text(json.dumps(FA_NOT_A_MAP))
    code, out, err = run_cli(argv + [str(path)])
    assert code == 2
    assert "Traceback" not in out + err
    assert out.strip() == (
        "verification error: f_a is defined only for a CT, and X_1 and X_2 meet at vertex z1,"
        " which " + pulled
    )
    # a constant tuple pulls nothing apart, and the map is not a CT
    assert run_cli(["fa", "--tuple", "1,1", str(path)])[0] == 0
    assert run_cli(["check-ct", str(path)])[0] == 2


def test_gen_type_e_pipes_into_rank():
    code, doc_text, _ = run_cli(["gen", "type-e", "--n", "3"])
    assert code == 0
    code, out, _ = run_cli(["rank"], stdin=doc_text)
    assert code == 0
    assert "rank(D)=3" in out


# -- generation -------------------------------------------------------------------


def test_gen_documents_parse_back():
    for argv in (
        ["gen", "type-e", "--n", "4"],
        ["gen", "type-c", "--n", "4"],
        ["gen", "type-c", "--n", "4", "--word", "E2 E1 E2' E1'"],
        ["gen", "type-e", "--n", "3", "--generator", "2"],
    ):
        code, out, _ = run_cli(argv)
        assert code == 0
        parse_document(out, "gen.json")


def test_gen_single_generator_twists_one_edge():
    code, out, _ = run_cli(["gen", "type-e", "--n", "3", "--generator", "1"])
    images = json.loads(out)["images"]
    assert images == {"E1": "E1", "E2": "E2 E1", "E3": "E3", "E4": "E4"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "type-e", "--n", "2"],
        ["gen", "type-c", "--n", "3"],
        ["gen", "type-e", "--n", "3", "--word", "E1"],
        ["gen", "type-e", "--n", "3", "--generator", "9"],
        ["gen", "type-c", "--n", "4", "--word", "E1 E2"],
    ],
)
def test_gen_rejects_bad_arguments(argv):
    code, _, err = run_cli(argv)
    assert code == 1
    assert "error:" in err


# -- verification exit codes --------------------------------------------------------


def test_check_ct_pass_and_fail(tmp_path):
    code, out, _ = run_cli(["check-ct", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert "(R) pass" in out and "(CS) pass" in out

    code, out, _ = run_cli(["check-ct", sample_file(tmp_path, "swap_rose")])
    assert code == 2
    assert "(R) FAIL" in out
    assert "period 2" in out


def test_check_ct_names_the_power_that_collapses_an_edge():
    # f(E3) = E2 E1' is not trivial, but f^2(E3) = E1 E1' is, and the
    # periodic Nielsen search is what takes f^2
    doc = {
        "name": "collapse",
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("E1", "E2", "E3")],
        "images": {"E1": "E1", "E2": "E1", "E3": "E2 E1'"},
    }
    for argv in (["check-ct"], ["check-ct", "--json"]):
        code, out, _ = run_cli(argv, stdin=json.dumps(doc))
        assert code == 2
        assert out == ("verification error: f^2 maps 'E3' to a trivial path "
                       "(periodic Nielsen search)\n")


def test_classify_reports_obstruction_with_exit_2(tmp_path):
    code, out, _ = run_cli(["classify", sample_file(tmp_path, "qe_rose")])
    assert code == 2
    assert "rank(L) is 1, not 5" in out


def test_classify_ia_mode_on_generated_family():
    _, doc_text, _ = run_cli(["gen", "type-c", "--n", "4"])
    code, out, _ = run_cli(["classify", "--mode", "ia"], stdin=doc_text)
    assert code == 0
    assert "homology action trivial" in out


def test_audit_flags_euler_equality_without_case(tmp_path):
    code, out, _ = run_cli(["audit", sample_file(tmp_path, "zero_stratum_map")])
    assert code == 2
    assert "audit FAILED" in out


def test_audit_passes_with_case_tags(tmp_path):
    code, out, _ = run_cli(["audit", sample_file(tmp_path, "full_fps_map")])
    assert code == 0
    assert "case (a)" in out and "audit passed" in out


def test_disintegrate_refuses_partial_fps_at_nielsen_bound_2(tmp_path):
    # the premise of the next test: at bound 2 the catalog misses the iNp
    # that splits an edge image
    code, out, _ = run_cli(
        ["disintegrate", sample_file(tmp_path, "partial_fps_map"), "--nielsen-bound", "2"]
    )
    assert code == 2
    assert out.startswith("verification error: ") and "is not completely split" in out


def test_audit_reads_the_nielsen_bound(tmp_path):
    path = sample_file(tmp_path, "partial_fps_map")
    argv = [path, "--nielsen-bound", "2"]
    assert run_cli(["audit"] + argv)[0] == run_cli(["disintegrate"] + argv)[0] == 2


def test_classify_reads_the_nielsen_bound(tmp_path):
    path = sample_file(tmp_path, "partial_fps_map")
    argv = [path, "--nielsen-bound", "2"]
    assert run_cli(["classify"] + argv)[0] == run_cli(["disintegrate"] + argv)[0] == 2


@pytest.mark.parametrize("command", ["audit", "classify"])
def test_audit_and_classify_read_the_documents_nielsen_bound(command):
    doc = json.loads(sample_text("partial_fps_map"))
    code, out, _ = run_cli([command], stdin=json.dumps(dict(doc, options={"nielsen_bound": 2})))
    assert code == 2 and "is not completely split" in out
    assert run_cli([command], stdin=json.dumps(doc))[0] == 0


@pytest.mark.parametrize("n, order", [(3, "E3 E1 E2 E4"), (5, "E5 E2 E6 E3 E1 E4 E8 E7")])
def test_audit_verdict_does_not_depend_on_edge_order(n, order):
    _, text, _ = run_cli(["gen", "type-e", "--n", str(n)])
    doc = json.loads(text)
    by_name = {e["name"]: e for e in doc["edges"]}
    verdicts = []
    for edges in (doc["edges"], [by_name[x] for x in order.split()]):
        _, out, _ = run_cli(["audit", "--json"], stdin=json.dumps(dict(doc, edges=edges)))
        verdicts.append(json.loads(out)["passed"])
    assert verdicts == [True, True]


def _document(name):
    if name.startswith("type_"):
        family = "type-e" if name.startswith("type_e") else "type-c"
        return json.loads(run_cli(["gen", family, "--n", name.rsplit("_", 1)[1]])[1])
    return json.loads(sample_text(name))


def _shuffled_edges(doc, seed):
    edges = list(doc["edges"])
    random.Random(seed).shuffle(edges)
    return dict(doc, edges=edges)


def _report(command, doc):
    """(exit code, JSON report) of a command, the report None on an error."""
    code, out, _ = run_cli([command, "--json"], stdin=json.dumps(doc))
    return code, json.loads(out) if out.startswith("{") else None


def _ct_and_rank(doc):
    """check-ct's verdict on every clause and the lattice rank."""
    code, ct = _report("check-ct", doc)
    rank_code, rank = _report("rank", doc)
    clauses = ct and {k: c["passed"] for k, c in ct["clauses"].items()}
    return code, clauses, rank_code, rank and rank["rank"]


def _mode(name):
    return "ia" if name.startswith("type_c") else "general"


def _classified(doc, mode):
    """classify's exit code and JSON report in one mode."""
    code, out, _ = run_cli(["classify", "--json", "--mode", mode], stdin=json.dumps(doc))
    return code, json.loads(out) if out.startswith("{") else None


SHUFFLED_DOCUMENTS = (
    ["type_e_%d" % n for n in range(3, 8)]
    + ["type_c_%d" % n for n in range(4, 7)]
    + ["full_fps_map"]
)

SHUFFLES = [(name, seed) for name in SHUFFLED_DOCUMENTS for seed in range(3)]


@pytest.mark.parametrize(
    "name, seed", [pytest.param(n, s, id="%s-seed%d" % (n, s)) for n, s in SHUFFLES]
)
def test_audit_survives_a_shuffled_edge_list(name, seed):
    doc = _document(name)
    verdicts = [_report("audit", d)[1]["passed"] for d in (doc, _shuffled_edges(doc, seed))]
    assert verdicts == [True, True]


@pytest.mark.parametrize(
    "name, seed", [pytest.param(n, s, id="%s-seed%d" % (n, s)) for n, s in SHUFFLES]
)
def test_check_ct_and_rank_survive_a_shuffled_edge_list(name, seed):
    doc = _document(name)
    assert _ct_and_rank(_shuffled_edges(doc, seed)) == _ct_and_rank(doc)


@pytest.mark.parametrize("name, seed", [("type_e_6", 0), ("type_e_8", 0), ("type_c_7", 1)])
def test_classify_survives_a_shuffled_edge_list(name, seed):
    # the same base and stage kinds, whatever order the strata come in
    doc = _document(name)
    plain, shuffled = (_classified(d, _mode(name))[1] for d in (doc, _shuffled_edges(doc, seed)))
    assert plain["ok"] and shuffled["ok"]
    assert (shuffled["base"], shuffled["stages"]) == (plain["base"], plain["stages"])


def _verdicts(doc, mode):
    """check-ct's clauses, the lattice rank, audit's verdict and classify's."""
    audit, classified = _report("audit", doc)[1], _classified(doc, mode)[1]
    return _ct_and_rank(doc) + (audit and audit["passed"], classified and classified["ok"])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(samples.SAMPLES) + ["type_e_3", "type_e_4", "type_c_4"]),
    st.data(),
)
def test_check_ct_and_rank_do_not_depend_on_the_listing(name, data):
    # permuting the edge and vertex lists changes the names' order, not the
    # map: the CT verdict of every clause, the lattice rank, the audit's
    # verdict and the classifier's stay
    doc = _document(name)
    shuffled = dict(
        doc,
        edges=data.draw(st.permutations(doc["edges"])),
        vertices=data.draw(st.permutations(doc["vertices"])),
    )
    assert _verdicts(shuffled, _mode(name)) == _verdicts(doc, _mode(name))


# -- reports ----------------------------------------------------------------------


def test_strata_listing(tmp_path):
    code, out, _ = run_cli(["strata", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert "1. fixed {E1}" in out
    assert "2. NEG linear {E2}  twisting (E1)^2" in out
    assert "4. NEG non-linear {E4}" in out


def test_nielsen_groups_twist_families(tmp_path):
    code, out, _ = run_cli(["nielsen", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert "E2 (E1)^k E2'  for every k >= 1" in out
    assert "(E1): E2 exponent 2, E3 exponent 1" in out


def test_nielsen_reports_a_search_cap_only_when_hit(tmp_path, monkeypatch):
    path = sample_file(tmp_path, "rose_cascade")
    code, out, _ = run_cli(["nielsen", "--json", path])
    assert code == 0 and "caveats" not in json.loads(out)
    stable_prefixes = traintrack.nielsen._stable_prefixes
    monkeypatch.setattr(
        traintrack.nielsen, "_stable_prefixes",
        lambda m, bound, iter_cap=None, linear=None, rays=None: stable_prefixes(
            m, bound, 1, linear, rays),
    )
    code, out, _ = run_cli(["nielsen", "--json", path])
    # C -> C B is quadratic: its ray is still iterated, and one iterate cuts it
    caveats = json.loads(out)["caveats"]
    assert caveats and all(c.startswith("search budget hit: ") for c in caveats)
    assert "stable-prefix ray of f from direction C cut at its iterate cap 1" in caveats[0]
    code, out, _ = run_cli(["nielsen", path])
    assert "note: " + caveats[0] in out


def test_disintegrate_prints_partition_and_basis(tmp_path):
    code, out, _ = run_cli(["disintegrate", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert "X_1 = {E2}" in out
    assert "a_2(2 - 1) = a_1*2 - a_2*1" in out
    assert "(1, 1)" in out


def test_fps_witness_report(tmp_path):
    code, out, _ = run_cli(["fps", sample_file(tmp_path, "partial_fps_map")])
    assert code == 0
    assert "partial FPS subgraph over G_1" in out
    assert "pair-of-arcs" in out

    code, out, _ = run_cli(["fps", sample_file(tmp_path, "rose_cascade")])
    assert code == 0
    assert "no FPS subgraphs" in out


def test_fa_prints_images_and_emits_documents(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    code, out, _ = run_cli(["fa", path, "--tuple", "2,2"])
    assert code == 0
    assert "E2 -> E2 E1 E1 E1 E1" in out

    code, out, _ = run_cli(["fa", path, "--tuple", "3,3", "--emit-document"])
    assert code == 0
    emitted = parse_document(out, "fa.json")
    assert emitted.graph_map.edge_images["E3"].edges == ("E3", "E1", "E1", "E1")

    code, _, _ = run_cli(["fa", path, "--tuple", "1,2"])
    assert code == 2


def test_coords_evaluates_tuples(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    code, out, _ = run_cli(["coords", path, "--tuple", "3,3"])
    assert code == 0
    assert "twist E2 = 6" in out
    assert "twist E3 = 3" in out


def test_tuple_syntax_errors_are_input_errors(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    code, _, err = run_cli(["fa", path, "--tuple", "one,two"])
    assert code == 1
    assert "--tuple" in err


# -- structured output ---------------------------------------------------------------


def test_json_report_schema(tmp_path):
    code, out, _ = run_cli(["rank", sample_file(tmp_path, "qe_rose"), "--json"])
    payload = json.loads(out)
    assert payload["command"] == "rank"
    assert payload["name"] == "qe_rose"
    assert payload["ok"] is True
    assert payload["M"] == 2 and payload["relations"] == 1 and payload["rank"] == 1

    code, out, _ = run_cli(["check-ct", sample_file(tmp_path, "swap_rose"), "--json"])
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["clauses"]["R"]["passed"] is False

    code, out, _ = run_cli(
        ["disintegrate", sample_file(tmp_path, "qe_rose"), "--json"]
    )
    payload = json.loads(out)
    assert payload["basis"] == [[1, 1]]
    assert payload["relations"] == [[-2, 2]]


def test_export_dot_colors_strata(tmp_path):
    code, out, _ = run_cli(["export-dot", sample_file(tmp_path, "qe_rose")])
    assert code == 0
    assert out.startswith('digraph "qe_rose" {')
    assert 'label="E1 [1: fixed]" color=black' in out
    assert 'label="E2 [2: NEG linear ^2]" color=blue' in out
    assert 'label="E4 [4: NEG non-linear]" color=darkorchid' in out

    dot = export_dot(samples.full_fps_map())
    assert "color=red" in dot  # EG stratum


# -- input handling ------------------------------------------------------------------


def test_stdin_is_default_input():
    code, out, _ = run_cli(["rank"], stdin=sample_text("qe_rose"))
    assert code == 0
    assert "rank(D)=1" in out


def test_missing_file_is_input_error():
    code, _, err = run_cli(["rank", "/nonexistent/nowhere.json"])
    assert code == 1
    assert "cannot read" in err


def test_multi_file_headers_and_aggregation(tmp_path):
    good = sample_file(tmp_path, "qe_rose")
    failing = sample_file(tmp_path, "swap_rose")
    broken = tmp_path / "broken.json"
    broken.write_text("{ nope")

    code, out, _ = run_cli(["rank", good, good])
    assert code == 0
    assert out.count("-- %s" % good) == 2

    code, _, _ = run_cli(["check-ct", good, failing])
    assert code == 2
    code, _, _ = run_cli(["check-ct", failing, str(broken)])
    assert code == 1


def test_option_precedence_document_then_flag():
    doc = json.loads(sample_text("qe_rose"))
    doc["options"] = {"nielsen_bound": 6}
    code, out, _ = run_cli(["nielsen"], stdin=json.dumps(doc))
    assert "catalog bound 6" in out
    code, out, _ = run_cli(["nielsen", "--nielsen-bound", "10"], stdin=json.dumps(doc))
    assert "catalog bound 10" in out


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("nielsen", "--nielsen-bound", "-3"),
        ("nielsen", "--nielsen-bound", "0"),
        ("check-ct", "--nielsen-bound", "-1"),
    ],
)
def test_bound_flags_obey_the_document_option_rule(tmp_path, command, flag, value):
    # A negative bound used to slice the ray from its end.
    key = flag[2:].replace("-", "_")
    code, out, err = run_cli([command, flag, value, sample_file(tmp_path, "qe_rose")])
    assert (code, out) == (1, "")
    assert err == "error: option %r must be a positive integer (at %s)\n" % (key, flag)
    doc = json.loads(sample_text("qe_rose"))
    doc["options"] = {key: 5}
    code, _, err = run_cli([command, flag, value], stdin=json.dumps(doc))
    assert code == 1 and ("(at %s)" % flag) in err


def test_check_ct_fails_cs_where_a_juncture_cancels_late(tmp_path):
    doc = {
        "name": "late_cancel",
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("E1", "E2", "E3", "E4")],
        "images": {"E1": "E4' E1", "E2": "E3' E1'", "E3": "E3", "E4": "E2'"},
    }
    p = tmp_path / "late_cancel.json"
    p.write_text(json.dumps(doc))
    code, out, _ = run_cli(["check-ct", str(p)])
    assert code == 2
    assert "(CS) FAIL" in out and "f(E1) is not completely split" in out


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _parsed(parse, argv):
    """(namespace or exit status, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


# argv after the subcommand, for every subcommand that reads documents
DOCUMENT_ARGV = [
    [], ["a.json"], ["a.json", "b.json", "--json"], ["--json", "a.json"],
    ["--js"], ["--nielsen-bound=5"], ["--nielsen-bound", "5", "a.json"],
    ["--nielsen-bound", "five"], ["--nielsen-bound"], ["--seed", "3", "--jobs", "2"],
    ["--bogus"], ["a.json", "--bogus", "b.json"], ["-x"], ["-h"], ["--help"],
    ["--he"], ["--", "a.json"], ["--", "--json"], ["a.json", "--"], ["-"],
    ["--mode", "ia"], ["--tuple", "1,2"], ["extra", "--json=1"],
]
# argv after the subcommand, for the subcommands with options of their own
OWN_ARGV = {
    "fa": [["--tuple", "1,2"], ["--tuple=1,2", "--emit-document", "--json"],
           ["--tu", "1,2"], ["--emit"]],
    "verify-commute": [["--a", "1,2", "--b", "0,1"], ["--a", "1,2"], ["--b=1"]],
    "coords": [["--tuple", "1,2", "a.json"], ["--tuple"]],
    "classify": [["--mode", "ia", "--json"], ["--mode", "bad"], ["--mode=general"],
                 ["--mo", "ia"]],
    "gen": [["type-e", "--n", "4"], ["type-c", "--n", "5", "--word", "E1 E2"],
            ["type-e"], ["type-x", "--n", "3"], ["type-e", "--n", "x"],
            ["type-c", "--n", "4", "--generator", "2", "--json", "--seed", "1"],
            ["type-e", "--n", "4", "a.json"], ["--n", "4"]],
}
PARSE_CASES = (
    [[command] + rest for command in sorted(_DISPATCH) for rest in DOCUMENT_ARGV]
    + [[command] + rest for command, cases in OWN_ARGV.items() for rest in cases]
    + [[], ["-h"], ["--help"], ["--json"], ["bogus"], ["bogus", "--json"],
       ["--json", "check-ct"], ["--", "check-ct"], ["check"], ["gen", "-h"]]
)


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_argv_parsed_once_as_the_full_parser_parses_it(argv):
    # the subcommand's own parser gives the full parser's namespace, exit
    # status, stdout and stderr, on valid input and on every error
    assert _parsed(_parse_args, argv) == _parsed(_build_parser().parse_args, argv)


def test_valid_argv_never_reaches_the_full_parser(monkeypatch):
    def full(argv):
        raise AssertionError("full parser used on %r" % (argv,))

    monkeypatch.setattr(_build_parser(), "parse_args", full)
    args = _parse_args(["classify", "--json", "--mode", "ia", "a.json"])
    assert (args.command, args.json, args.mode, args.files) == ("classify", True, "ia", ["a.json"])
    with pytest.raises(AssertionError, match="full parser"):
        _parse_args(["classify", "--bogus"])


def test_reports_are_deterministic(tmp_path):
    path = sample_file(tmp_path, "full_fps_map")
    runs = [run_cli(["disintegrate", path, "--json"]) for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli(["nielsen", path]) for _ in range(2)]
    assert runs[0] == runs[1]


def test_jobs_matches_serial_output(tmp_path):
    files = [sample_file(tmp_path, n) for n in ("qe_rose", "partial_fps_map")]
    serial = run_cli(["rank"] + files)
    parallel = run_cli(["rank"] + files + ["--jobs", "2"])
    assert serial == parallel


def src_env():
    """The environment with the tested package's source dir on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(traintrack.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_runs_the_command_line(tmp_path):
    path = sample_file(tmp_path, "qe_rose")
    proc = subprocess.run(
        [sys.executable, "-m", "traintrack", "check-ct", "--json", path],
        capture_output=True, text=True, env=src_env(), cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    payload = json.loads(proc.stdout)
    assert payload["command"] == "check-ct" and payload["passed"] is True
    assert proc.stdout == run_cli(["check-ct", "--json", path])[1]


def test_a_reader_closing_the_pipe_ends_the_run_quietly(tmp_path):
    # the report, about 0.9 MB, outgrows the pipe's buffer, so the command
    # is still writing when the reader closes after 100 bytes
    path = sample_file(tmp_path, "qe_rose")
    proc = subprocess.Popen(
        [sys.executable, "-m", "traintrack", "fa", "--tuple", "500,500", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=src_env(), cwd=str(tmp_path),
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert len(head) == 100
    assert err == b""
    assert proc.returncode == CLOSED_STDOUT == 141


DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, env=src_env(), cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
