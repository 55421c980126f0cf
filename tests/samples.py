"""Example maps of the tests, each written out in ``tests/golden/docs``.

Each factory returns a fresh GraphMap.  Names describe the feature the map
exhibits, not where it came from:

* ``rose_cascade``      three petals, each twisting over the previous one;
  the smallest map whose disintegration has a single non-fixed class.
* ``qe_rose``           four petals with an exceptional path in an image;
  the minimal example of a nontrivial admissibility relation.
* ``swap_rose``         a single EG stratum with two period-two directions
  (fails forward rotationlessness).
* ``suffix_rose``       NEG suffixes with two linear petals on one axis plus
  an edge with no E.u normal form.
* ``exceptional_rose``  same linear data, last petal carrying an exceptional
  path, so the lattice acquires the relation 3p = 5n - 2m.
* ``partial_fps_map``   rank-three map of maximal lattice rank: fixed circle,
  two linear edges and an EG pair of arcs forming a partial
  four-punctured-sphere (FPS) subgraph.
* ``full_fps_map``      rank-four map whose top stage is a full FPS subgraph
  (three linear edges, EG pair of arcs, Euler drop exactly two).
* ``zero_stratum_map``  a map with a genuine zero stratum and connecting
  path; passes every structural check but is not a homotopy equivalence
  (the checks are independent, see tests).
"""

from traintrack.maps import GraphMap
from traintrack.paths import MarkedGraph


def _rose(names):
    return MarkedGraph(["v"], [(n, "v", "v") for n in names])


def _map(graph, images, name):
    return GraphMap(
        graph,
        {e: graph.path(seq.split()) for e, seq in images.items()},
        name=name,
    )


def rose_cascade():
    g = _rose(["A", "B", "C"])
    return _map(g, {"A": "A", "B": "B A", "C": "C B"}, "rose_cascade")


def qe_rose():
    g = _rose(["E1", "E2", "E3", "E4"])
    return _map(
        g,
        {"E1": "E1", "E2": "E2 E1 E1", "E3": "E3 E1", "E4": "E4 E3 E3 E2'"},
        "qe_rose",
    )


def swap_rose():
    g = _rose(["A", "B", "C"])
    return _map(
        g,
        {"A": "B B B A", "B": "C C C B", "C": "B B B A B B B A B B B A C"},
        "swap_rose",
    )


def suffix_rose():
    g = _rose(["A", "B", "C", "D", "E"])
    return _map(
        g,
        {"A": "A", "B": "B A A", "C": "C B", "D": "D A A A A A", "E": "D C B'"},
        "suffix_rose",
    )


def exceptional_rose():
    g = _rose(["A", "B", "C", "D"])
    return _map(
        g,
        {"A": "A", "B": "B A A", "C": "C A A A A A", "D": "D C B'"},
        "exceptional_rose",
    )


def partial_fps_map():
    g = MarkedGraph(
        ["v1", "v2", "v3"],
        [
            ("E1", "v1", "v1"),
            ("E2", "v2", "v1"),
            ("E3", "v3", "v1"),
            ("P", "v1", "v2"),
            ("Q", "v2", "v3"),
        ],
    )
    r2 = "E2 E1 E2'"
    return _map(
        g,
        {
            "E1": "E1",
            "E2": "E2 E1",
            "E3": "E3 E1 E1",
            "P": "P %s Q E3 E1 E1 E3' Q' E2 E1' E2' P' E1' P" % r2,
            "Q": "P' E1 P %s Q" % r2,
        },
        "partial_fps_map",
    )


def full_fps_map():
    g = MarkedGraph(
        ["u1", "w1", "w2", "w3"],
        [
            ("E1", "u1", "u1"),
            ("E2", "u1", "u1"),
            ("F1", "w1", "u1"),
            ("F2", "w2", "u1"),
            ("F3", "w3", "u1"),
            ("U", "w1", "w2"),
            ("V", "w2", "w3"),
        ],
    )
    r1 = "F1 E1 F1'"
    r2 = "F2 E1 F2'"
    return _map(
        g,
        {
            "E1": "E1",
            "E2": "E2 E1 E1 E1 E1",
            "F1": "F1 E1",
            "F2": "F2 E1 E1",
            "F3": "F3 E1 E1 E1",
            "U": "U %s V F3 E1 E1 F3' V' F2 E1' F2' U' F1 E1' F1' U" % r2,
            "V": "U' %s U %s V" % (r1, r2),
        },
        "full_fps_map",
    )


def zero_stratum_map():
    g = MarkedGraph(
        ["a", "z1", "z2"],
        [
            ("A", "a", "a"),
            ("Z", "z1", "z2"),
            ("S", "z1", "a"),
            ("T", "z2", "a"),
        ],
    )
    return _map(
        g,
        {
            "A": "A",
            "Z": "A",
            "S": "A' T' Z' S",
            "T": "S' Z T A T' Z' S",
        },
        "zero_stratum_map",
    )


SAMPLES = {
    "rose_cascade": rose_cascade,
    "qe_rose": qe_rose,
    "swap_rose": swap_rose,
    "suffix_rose": suffix_rose,
    "exceptional_rose": exceptional_rose,
    "partial_fps_map": partial_fps_map,
    "full_fps_map": full_fps_map,
    "zero_stratum_map": zero_stratum_map,
}
