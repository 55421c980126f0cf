"""Walk one map from edge images to its commuting family.

The subject is the four-petal rose of ``tests/golden/docs/qe_rose.json``,
whose last edge crosses an exceptional path.  The walkthrough mirrors how
the library is meant to be used: classify the strata, certify the
structural conditions, read off the admissibility relation, and then
actually multiply the maps the lattice promises.
"""

import pathlib

from traintrack import (
    build_fa,
    check_ct,
    compose,
    coordinate_system,
    disintegrate,
    evaluate,
    rank_report,
    verify_commute,
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
    m = load("qe_rose")
    g = m.graph

    section("The map")
    for e in g.edge_names:
        print("  %s -> %s" % (e, " ".join(m.edge_images[e].edges)))
    print("rank of the free group:", g.rank())

    section("Structure check")
    report = check_ct(m)
    for line in report.lines():
        print(" ", line)

    section("Disintegration")
    dis = disintegrate(m)
    for i, sub in enumerate(dis.partition.subgraphs):
        print("  X_%d = {%s}" % (i + 1, " ".join(sorted(sub))))
    for rel in dis.relations:
        print("  relation:", rel)
    print("  lattice basis:", dis.lattice.basis)
    print("  " + rank_report(m, dis).summary())

    section("The commuting family")
    # Diagonal tuples recover the iterates of f itself.
    f2 = build_fa(m, (2, 2), dis)
    print("  f_(2,2) equals f o f:", f2.edges_equal(compose(m, m)))
    # Any two admissible tuples commute and add.
    for a, b in (((1, 1), (2, 2)), ((3, 3), (1, 1))):
        print("  f_%r and f_%r commute and add:" % (a, b),
              verify_commute(m, a, b, dis))
    # Off-lattice tuples are rejected up front.
    try:
        build_fa(m, (1, 2), dis)
    except Exception as exc:
        print("  f_(1,2) rejected:", exc)

    section("Coordinates")
    cs = coordinate_system(m, dis)
    for line in cs.lines():
        print(" ", line)
    vec = evaluate(cs, dis.partition, (3, 3))
    print("  at a=(3,3):")
    for line in vec.lines():
        print(" ", line)


if __name__ == "__main__":
    main()
