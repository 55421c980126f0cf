"""Golden outputs of the command line on a fixed corpus.

Every case feeds one document from ``tests/golden/docs`` through stdin to
``traintrack.cli.main`` and compares the exit code and the exact stdout,
in text and in ``--json`` form, against ``tests/golden/expected``.  The
corpus covers each command the benchmark runs: ``check-ct``, ``nielsen``
and ``disintegrate`` on the ladder A -> A, B -> B A^k (``check-ct`` and
``nielsen`` also at k = 100); ``disintegrate``, ``audit``, ``classify``,
``check-ct`` and ``nielsen`` on the type E and type C twist families, up
to the largest, type E n=6 and type C n=5; ``check-ct``, ``nielsen``,
``coords``, ``fps`` and ``verify-commute`` on the sample maps; ``check-ct`` and ``nielsen`` on
``unreduced_axis``, E3 -> E3 E2 E1 E2' over the axis E2 E1 E2', which is
not cyclically reduced; ``check-ct`` and ``nielsen`` on
``composite_family``, X -> Y', Y -> Y X Y, E -> E X Y, whose linear
family E (X Y)^k E' is composite, as E X is Nielsen; ``check-ct --json`` and ``nielsen --json`` on
the rest of the linear corpus: the ladder at k = 400 and 800, type E n=8
and type C n=7; and, on that corpus, ``disintegrate`` in both forms, and
``audit`` and ``classify`` on type E n=8 and type C n=7.  Any change to a
report, however small, fails here.

The expected files are written by running this module as a script::

    PYTHONPATH=src python tests/test_golden_cli.py

which writes the documents, the expected outputs and the exit codes of the
cases that have no expected file yet, from the program as it stands, and
leaves every existing file alone.  To change an output on purpose, delete
its expected file first.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from traintrack.cli import document_from_map, document_text, main
from traintrack.maxrank import gen_type_c, gen_type_e

import samples

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DOCS = os.path.join(GOLDEN, "docs")
EXPECTED = os.path.join(GOLDEN, "expected")
MANIFEST = os.path.join(GOLDEN, "exit_codes.json")


def _ladder(k):
    return {
        "name": "ladder_%d" % k,
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("A", "B")],
        "images": {"A": "A", "B": " ".join(["B"] + ["A"] * k)},
    }


def _documents():
    docs = {"ladder_%d" % k: _ladder(k) for k in (25, 50, 100, 400, 800)}
    # the iterates E3 E2 E1^j E2' of E3's ray do not nest: each adds its own
    # stable prefixes through its E2' tail
    docs["unreduced_axis"] = {
        "name": "unreduced_axis",
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("E1", "E2", "E3")],
        "images": {"E1": "E1", "E2": "E2", "E3": "E3 E2 E1 E2'"},
    }
    # w = X Y is Nielsen and so is E X: every member E (X Y)^k E' is composite
    docs["composite_family"] = {
        "name": "composite_family",
        "vertices": ["v"],
        "edges": [{"name": e, "from": "v", "to": "v"} for e in ("X", "Y", "E")],
        "images": {"X": "Y'", "Y": "Y X Y", "E": "E X Y"},
    }
    for n in (3, 4, 5, 6, 8):
        docs["type_e_%d" % n] = document_from_map(gen_type_e(n).generic, "type_e_%d" % n)
    for n in (4, 5, 7):
        docs["type_c_%d" % n] = document_from_map(gen_type_c(n).generic, "type_c_%d" % n)
    for name, factory in samples.SAMPLES.items():
        docs[name] = document_from_map(factory())
    return docs


# Fixed lattice points: qe_rose needs a1 = a2 and exceptional_rose
# 2 a1 + 3 a3 = 5 a2; suffix_rose has no disintegration, so coords refuses.
COORDS_TUPLES = {
    "rose_cascade": "3",
    "qe_rose": "4,4",
    "swap_rose": "2",
    "suffix_rose": "1",
    "exceptional_rose": "11,8,6",
    "partial_fps_map": "2,3,4",
    "full_fps_map": "1,2,3,4,5",
    "zero_stratum_map": "3",
}
COMMUTE_TUPLES = {
    "rose_cascade": ("6", "9"),
    "qe_rose": ("5,5", "7,7"),
    "exceptional_rose": ("11,8,6", "7,7,7"),
}


def _cases():
    cases = []
    for k in (25, 50):
        for cmd in ("check-ct", "nielsen", "disintegrate"):
            cases.append(("ladder_%d" % k, cmd, ()))
    cases.append(("ladder_100", "check-ct", ()))
    cases.append(("ladder_100", "nielsen", ()))
    for doc, mode in [("type_e_%d" % n, "general") for n in (3, 4, 5)] + [("type_c_4", "ia")]:
        cases.append((doc, "disintegrate", ()))
        cases.append((doc, "audit", ()))
        cases.append((doc, "classify", ("--mode", mode)))
        cases.append((doc, "check-ct", ()))
        cases.append((doc, "nielsen", ()))
    # the largest maps of the benchmark's twist families
    for doc, mode in (("type_e_6", "general"), ("type_c_5", "ia")):
        cases.append((doc, "disintegrate", ()))
        cases.append((doc, "audit", ()))
        cases.append((doc, "classify", ("--mode", mode)))
        cases.append((doc, "check-ct", ()))
        cases.append((doc, "nielsen", ()))
    cases.append(("unreduced_axis", "check-ct", ()))
    cases.append(("unreduced_axis", "nielsen", ()))
    cases.append(("composite_family", "check-ct", ()))
    cases.append(("composite_family", "nielsen", ()))
    for name in samples.SAMPLES:
        cases.append((name, "check-ct", ()))
        cases.append((name, "nielsen", ()))
        cases.append((name, "coords", ("--tuple", COORDS_TUPLES[name])))
        cases.append((name, "fps", ()))
    for name, (a, b) in COMMUTE_TUPLES.items():
        cases.append((name, "verify-commute", ("--a", a, "--b", b)))
    # the disintegration of the linear corpus beyond the benchmark's sizes
    for doc, mode in (("type_e_8", "general"), ("type_c_7", "ia")):
        cases.append((doc, "disintegrate", ()))
        cases.append((doc, "audit", ()))
        cases.append((doc, "classify", ("--mode", mode)))
    for k in (400, 800):
        cases.append(("ladder_%d" % k, "disintegrate", ()))
    cases = [(doc, cmd, args, ("text", "json")) for doc, cmd, args in cases]
    # the linear corpus of the north star, in the JSON form only
    for doc in ("ladder_400", "ladder_800", "type_e_8", "type_c_7"):
        for cmd in ("check-ct", "nielsen"):
            cases.append((doc, cmd, (), ("json",)))
    out = []
    for doc, cmd, args, formats in cases:
        for fmt in formats:
            case_id = "%s.%s.%s" % (doc, cmd, fmt)
            argv = [cmd] + (["--json"] if fmt == "json" else []) + list(args)
            out.append((case_id, doc, argv))
    return out


CASES = _cases()


def run(doc, argv):
    with open(os.path.join(DOCS, doc + ".json"), encoding="utf-8") as fh:
        text = fh.read()
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def _expected_path(case_id):
    return os.path.join(EXPECTED, case_id + ".out")


@pytest.mark.parametrize("case_id,doc,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(case_id, doc, argv):
    with open(MANIFEST, encoding="utf-8") as fh:
        codes = json.load(fh)
    with open(_expected_path(case_id), encoding="utf-8") as fh:
        want = fh.read()
    code, got = run(doc, argv)
    assert got == want
    assert code == codes[case_id]


def test_write_adds_only_missing_files(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    for name in ("DOCS", "EXPECTED"):
        monkeypatch.setattr(module, name, str(tmp_path / name.lower()))
    monkeypatch.setattr(module, "MANIFEST", str(tmp_path / "exit_codes.json"))
    monkeypatch.setattr(module, "CASES", CASES[:2])
    with open(module.MANIFEST, "w", encoding="utf-8") as fh:
        json.dump({"kept.case": 3}, fh)
    write()
    first, second = (_expected_path(case_id) for case_id, _, _ in CASES[:2])
    with open(first, encoding="utf-8") as fh:
        fresh = fh.read()
    with open(first, "w", encoding="utf-8") as fh:
        fh.write("stale")
    os.remove(second)
    write()
    with open(first, encoding="utf-8") as fh:
        assert fh.read() == "stale"
    assert os.path.exists(second)
    with open(module.MANIFEST, encoding="utf-8") as fh:
        assert json.load(fh) == {"kept.case": 3, CASES[0][0]: 0, CASES[1][0]: 0}
    assert fresh.startswith("(R) pass")


def write():
    """Write the documents, expected outputs and exit codes that are
    missing; existing files are never rewritten."""
    os.makedirs(DOCS, exist_ok=True)
    os.makedirs(EXPECTED, exist_ok=True)
    for name, doc in _documents().items():
        path = os.path.join(DOCS, name + ".json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(document_text(doc))
    codes = {}
    if os.path.exists(MANIFEST):
        with open(MANIFEST, encoding="utf-8") as fh:
            codes = json.load(fh)
    for case_id, doc, argv in CASES:
        path = _expected_path(case_id)
        if os.path.exists(path):
            continue
        codes[case_id], out = run(doc, argv)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(out)
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write()
