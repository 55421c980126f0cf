"""Tour the maximal-rank landscape: audits, FPS subgraphs, twist families.

The lattice rank of a disintegration is capped by an Euler-characteristic
bound accumulated stage by stage.  This script audits that bound on the
corpus examples, locates the four-punctured-sphere (FPS) subgraphs that
make equality possible, and generates the two standard twist families that
realize the maximal rank in every free-group rank.
"""

import pathlib

from traintrack import (
    classify_max_rank,
    detect_fps,
    disintegrate,
    gen_type_c,
    gen_type_e,
    rank_audit,
    split_twist_vertex,
)
from traintrack.cli import parse_document


DOCS = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "docs"


def load(name):
    """The map of a golden document, parsed as the command line parses it."""
    path = DOCS / (name + ".json")
    return parse_document(path.read_text(), str(path)).graph_map


def section(title):
    print()
    print(title)
    print("-" * len(title))


def main():
    section("Stage-by-stage audit")
    for name in ("qe_rose", "partial_fps_map", "full_fps_map"):
        m = load(name)
        print("%s:" % name)
        for line in rank_audit(m).lines():
            print("  " + line)

    section("FPS subgraphs behind the equalities")
    for name in ("partial_fps_map", "full_fps_map"):
        m = load(name)
        print("%s:" % name)
        for w in detect_fps(m):
            for line in w.lines():
                print("  " + line)

    section("Classification of the maximal-rank examples")
    for name in ("partial_fps_map", "full_fps_map"):
        m = load(name)
        print("%s:" % name)
        for line in classify_max_rank(m).lines():
            print("  " + line)

    section("Twist families")
    for n in (3, 4, 5):
        fam = gen_type_e(n)
        rank = disintegrate(fam.generic).rank
        print("  type E, n=%d: %d generators, generic rank %d (target %d)"
              % (n, len(fam.generators), rank, 2 * n - 3))
    for n in (4, 5):
        fam = gen_type_c(n)
        rank = disintegrate(fam.generic).rank
        print("  type C, n=%d: %d generators, generic rank %d (target %d)"
              % (n, len(fam.generators), rank, 2 * n - 4))
    fam = gen_type_c(4)
    print("  type C twisting word:", " ".join(fam.word.edges))
    for line in classify_max_rank(fam.generic, mode="ia").lines():
        print("  " + line)

    section("Vertex-splitting surgery")
    m = load("qe_rose")
    print("before: edges", ", ".join(m.graph.edge_names))
    m2 = split_twist_vertex(m, "E2")
    print("after splitting at E2: edges", ", ".join(m2.graph.edge_names))
    for e in m2.graph.edge_names:
        print("  %s -> %s" % (e, " ".join(m2.edge_images[e].edges)))
    print("the new fixed edge is a forest, so the classifier refuses it:")
    try:
        classify_max_rank(m2)
    except Exception as exc:
        print(" ", exc)


if __name__ == "__main__":
    main()
