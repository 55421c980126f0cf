"""Drive the command line end to end on JSON map documents.

Everything here goes through ``traintrack.cli`` exactly as the shell
would: parse a document of the golden corpus, analyze it, reject a wrong
declaration, generate a family document and render a DOT export.  Each
call's exit code is shown next to its output.
"""

import json
import pathlib
import tempfile

from traintrack.cli import main, parse_document

DOCS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "docs"


def call(argv, title):
    print()
    print("$ traintrack " + " ".join(argv))
    code = main(argv)
    print("[exit %d]  # %s" % (code, title))
    return code


def main_demo():
    with tempfile.TemporaryDirectory() as tmp:
        qe = str(DOCS / "qe_rose.json")
        text = (DOCS / "qe_rose.json").read_text()
        m = parse_document(text, qe).graph_map
        print("%s: %d edges, images %s" % (
            m.name, len(m.graph.edge_names),
            ", ".join("%s -> %s" % (e, " ".join(m.edge_images[e].edges))
                      for e in m.graph.edge_names)))

        call(["strata", qe], "filtration with classifications")
        call(["rank", qe], "lattice rank summary")
        call(["verify-commute", qe, "--a", "1,1", "--b", "2,2"],
             "a commuting admissible pair")
        call(["verify-commute", qe, "--a", "1,2", "--b", "2,2"],
             "an inadmissible tuple is a verification failure")

        # documents can declare data; it is re-verified, never trusted
        doc = json.loads(text)
        doc["nielsen_paths"] = ["E2 E1"]  # not actually fixed by the map
        bad = tmp + "/bad.json"
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        call(["rank", bad], "a wrong declaration is an input error")

        call(["check-ct", str(DOCS / "swap_rose.json")], "period-two directions fail clause (R)")

        call(["export-dot", qe], "DOT export, strata color-coded")

    print()
    print("$ traintrack gen type-e --n 3  " "| traintrack rank")
    import io, sys
    buf = io.StringIO()
    old_stdout, sys.stdout = sys.stdout, buf
    try:
        main(["gen", "type-e", "--n", "3"])
    finally:
        sys.stdout = old_stdout
    old_stdin, sys.stdin = sys.stdin, io.StringIO(buf.getvalue())
    try:
        code = main(["rank"])
    finally:
        sys.stdin = old_stdin
    print("[exit %d]  # generated family document piped straight back in" % code)


if __name__ == "__main__":
    main_demo()
