"""Benchmark corpus: map documents, operations and their expected answers.

Every document is written here from its definition, never produced by the
program under test, and every expected answer comes from an independent
source: the definition of the map, a hand derivation recorded next to it,
or a closed-form number.  An operation is one (command, document) pair run
through the command line with ``--json``; its check compares JSON fields of
the report, never text or exit codes, so later reports may add fields and
caveats freely.
"""

import json
import math
import re


# -- documents ------------------------------------------------------------------


def _doc(name, vertices, edges, images):
    return json.dumps({
        "name": name,
        "vertices": vertices,
        "edges": [{"name": e, "from": a, "to": b} for e, a, b in edges],
        "images": images,
    })


def _rose(name, images):
    return _doc(name, ["v"], [(e, "v", "v") for e in images], images)


def ladder_doc(k):
    """A -> A, B -> B A^k: one linear edge twisting k times around a fixed loop."""
    return _rose("ladder_%d" % k, {"A": "A", "B": " ".join(["B"] + ["A"] * k)})


def _family_edges(n):
    """The subdivided rose of the standard families: petals E1, E2 at v1 and,
    for each midpoint v_k (k = 2..n-1), the pair E_(2k-1), E_(2k) to v1."""
    edges = [("E1", "v1", "v1"), ("E2", "v1", "v1")]
    for k in range(2, n):
        edges.append(("E%d" % (2 * k - 1), "v%d" % k, "v1"))
        edges.append(("E%d" % (2 * k), "v%d" % k, "v1"))
    return ["v%d" % k for k in range(1, n)], edges


def type_e_doc(n):
    """Generic type-E member: E_j -> E_j E1^(j-1) for j = 2..2n-2."""
    vertices, edges = _family_edges(n)
    images = {"E1": "E1"}
    for j in range(2, 2 * n - 1):
        images["E%d" % j] = " ".join(["E%d" % j] + ["E1"] * (j - 1))
    return _doc("type_e_%d" % n, vertices, edges, images)


def type_c_doc(n):
    """Generic type-C member: E_(i+2) -> E_(i+2) [E1, E2]^i for i = 1..2n-4."""
    vertices, edges = _family_edges(n)
    images = {"E1": "E1", "E2": "E2"}
    for i in range(1, 2 * n - 3):
        images["E%d" % (i + 2)] = " ".join(["E%d" % (i + 2)] + ["E1 E2 E1' E2'"] * i)
    return _doc("type_c_%d" % n, vertices, edges, images)


SAMPLE_DOCS = {
    "rose_cascade": _rose("rose_cascade", {"A": "A", "B": "B A", "C": "C B"}),
    "qe_rose": _rose("qe_rose", {
        "E1": "E1", "E2": "E2 E1 E1", "E3": "E3 E1", "E4": "E4 E3 E3 E2'",
    }),
    "swap_rose": _rose("swap_rose", {
        "A": "B B B A", "B": "C C C B", "C": "B B B A B B B A B B B A C",
    }),
    "suffix_rose": _rose("suffix_rose", {
        "A": "A", "B": "B A A", "C": "C B", "D": "D A A A A A", "E": "D C B'",
    }),
    "exceptional_rose": _rose("exceptional_rose", {
        "A": "A", "B": "B A A", "C": "C A A A A A", "D": "D C B'",
    }),
    "partial_fps_map": _doc(
        "partial_fps_map",
        ["v1", "v2", "v3"],
        [("E1", "v1", "v1"), ("E2", "v2", "v1"), ("E3", "v3", "v1"),
         ("P", "v1", "v2"), ("Q", "v2", "v3")],
        {
            "E1": "E1",
            "E2": "E2 E1",
            "E3": "E3 E1 E1",
            "P": "P E2 E1 E2' Q E3 E1 E1 E3' Q' E2 E1' E2' P' E1' P",
            "Q": "P' E1 P E2 E1 E2' Q",
        },
    ),
    "full_fps_map": _doc(
        "full_fps_map",
        ["u1", "w1", "w2", "w3"],
        [("E1", "u1", "u1"), ("E2", "u1", "u1"), ("F1", "w1", "u1"),
         ("F2", "w2", "u1"), ("F3", "w3", "u1"), ("U", "w1", "w2"),
         ("V", "w2", "w3")],
        {
            "E1": "E1",
            "E2": "E2 E1 E1 E1 E1",
            "F1": "F1 E1",
            "F2": "F2 E1 E1",
            "F3": "F3 E1 E1 E1",
            "U": "U F2 E1 F2' V F3 E1 E1 F3' V' F2 E1' F2' U' F1 E1' F1' U",
            "V": "U' F1 E1 F1' U F2 E1 F2' V",
        },
    ),
    "zero_stratum_map": _doc(
        "zero_stratum_map",
        ["a", "z1", "z2"],
        [("A", "a", "a"), ("Z", "z1", "z2"), ("S", "z1", "a"), ("T", "z2", "a")],
        {"A": "A", "Z": "A", "S": "A' T' Z' S", "T": "S' Z T A T' Z' S"},
    ),
}


# -- independent numbers ----------------------------------------------------------


def positive_root(coeffs):
    """The positive root of an integer polynomial (highest degree first) whose
    coefficients change sign exactly once, so that by Descartes' rule of signs
    it has exactly one positive root; found by bisection on [0, Cauchy bound]."""
    def p(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    lo, hi = 0.0, 1.0 + max(abs(c) for c in coeffs[1:])
    for _ in range(200):
        mid = (lo + hi) / 2
        if p(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


# Expansion factors of the EG strata, from transition blocks counted by hand on
# the documents above (entry = occurrences of edge i in the image of edge j).
# {P Q} and {U V}: [[3, 2], [2, 1]], polynomial x^2 - 4x - 1, lambda = 2 + sqrt 5.
# swap_rose: [[1, 0, 3], [3, 1, 9], [0, 3, 1]], polynomial x^3 - 3x^2 - 24x - 1,
# one sign change, so its positive root is the largest.  zero_stratum_map's
# {S T}: [[1, 2], [1, 2]], rank one with trace 3.
GOLDEN = 2 + math.sqrt(5)
LAMBDA = {
    "swap_rose": [positive_root([1, -3, -24, -1])],
    "partial_fps_map": [GOLDEN],
    "full_fps_map": [GOLDEN],
    "zero_stratum_map": [3.0],
}
LAMBDA_TOL = 1e-9


# -- coordinate tables ------------------------------------------------------------

# Per sample, the coordinates in filtration order: (class, d) for a linear edge
# E -> E w^d, d read off the edge image, or (class, None) for an EG stratum.
# Classes are the almost invariant subgraphs in filtration order: every
# non-fixed stratum is its own class except {E3, E4} of qe_rose and the single
# classes {B, C}, {A, B, C} and {S, T, Z} of rose_cascade, swap_rose and
# zero_stratum_map.  f_a scales every coordinate of class s by a_s.
COORDS = {
    "rose_cascade": [(0, 1)],
    "qe_rose": [(0, 2), (1, 1)],
    "swap_rose": [(0, None)],
    "exceptional_rose": [(0, 2), (1, 5)],
    "partial_fps_map": [(0, 1), (1, 2), (2, None)],
    "full_fps_map": [(0, 4), (1, 1), (2, 2), (3, 3), (4, None)],
    "zero_stratum_map": [(0, None)],
}


def _coords_tuple(rng, name):
    """A lattice point with small entries: qe_rose needs a_1 = a_2 and
    exceptional_rose 2 a_1 + 3 a_3 = 5 a_2, solved by (t + 3s, t, t - 2s)."""
    if name == "qe_rose":
        x = rng.randint(1, 9)
        return (x, x)
    if name == "exceptional_rose":
        t, s = rng.randint(7, 9), rng.randint(-2, 2)
        return (t + 3 * s, t, t - 2 * s)
    m = 1 + max(c for c, _ in COORDS[name])
    return tuple(rng.randint(1, 9) for _ in range(m))


def _commute_tuples(rng, name):
    """Two admissible tuples with entries of about 40-50 whose sum is fixed,
    so that the work of f_(a+b) is the same for every seed."""
    if name == "rose_cascade":
        x = rng.randint(40, 50)
        return (x,), (90 - x,)
    if name == "qe_rose":
        x = rng.randint(40, 50)
        return (x, x), (90 - x, 90 - x)
    t, s = rng.randint(40, 50), rng.randint(-3, 3)
    return (t + 3 * s, t, t - 2 * s), (90 - t - 3 * s, 90 - t, 90 - t + 2 * s)


# -- checks -----------------------------------------------------------------------


def _failing(payload):
    return sorted(k for k, c in payload["clauses"].items() if not c["passed"])


def expect_ct(failing):
    want = sorted(failing)

    def check(payload):
        got = _failing(payload)
        if bool(payload["passed"]) != (not want) or got != want:
            return "check-ct: failing clauses %s, expected %s" % (got, want)
        return None
    return check


def expect_ladder_nielsen(k):
    want = [{"word": "A", "members": [{"edge": "B", "exponent": k}]}]

    def check(payload):
        if payload["axes"] != want or payload["fixed_edges"] != ["A"]:
            return "nielsen: axes %s fixed %s" % (payload["axes"], payload["fixed_edges"])
        return None
    return check


def expect_fields(**want):
    def check(payload):
        if not isinstance(payload, dict):
            return "expected %s, got no JSON report" % (want,)
        got = {k: payload.get(k) for k in want}
        if got != want:
            return "expected %s, got %s" % (want, got)
        return None
    return check


def expect_classify(rank):
    def check(payload):
        if payload["ok"] is not True or payload["rank"] != rank or payload["target"] != rank:
            return "classify: ok=%s rank=%s target=%s, expected rank %d" % (
                payload["ok"], payload["rank"], payload["target"], rank)
        return None
    return check


_LAMBDA_RE = re.compile(r"lambda=([0-9.eE+-]+)")


def expect_coords(name, a):
    spec = COORDS[name]
    vector = [a[s] * d if d is not None else a[s] for s, d in spec]
    lambdas = LAMBDA.get(name, [])

    def check(payload):
        if payload["K"] != len(spec) or payload.get("vector") != vector:
            return "coords: K=%s vector %s, expected K=%d vector %s" % (
                payload["K"], payload.get("vector"), len(spec), vector)
        got = [float(x) for c in payload["coordinates"] for x in _LAMBDA_RE.findall(c)]
        if len(got) != len(lambdas) or any(
                abs(g - w) > LAMBDA_TOL for g, w in zip(got, lambdas)):
            return "coords: lambda %s, expected %s" % (got, lambdas)
        return None
    return check


def expect_fps(kinds):
    def check(payload):
        got = [w["kind"] for w in payload["witnesses"]]
        if got != kinds:
            return "fps: witnesses %s, expected %s" % (got, kinds)
        return None
    return check


def expect_rejected(payload):
    """suffix_rose's top stratum {E} is a zero stratum with no irreducible
    stratum above it, so it has no disintegration: the command must refuse."""
    if payload is not None and payload.get("ok") is not False:
        return "expected a refusal, got ok=%s" % payload.get("ok")
    return None


# -- operations and workloads -----------------------------------------------------


class Op:
    """One (command, document) operation with the check of its answer.

    ``check`` takes the parsed ``--json`` report (None when the command
    printed no report) and returns None or a mismatch message.  ``reaches``
    names traced functions this operation must call beyond those of its
    command.
    """

    def __init__(self, command, label, doc, check, args=(), reaches=()):
        self.command = command
        self.label = label
        self.doc = doc
        self.check = check
        self.args = tuple(args)
        self.reaches = tuple(reaches)

    def argv(self):
        return [self.command, "--json"] + list(self.args)


LADDER_KS = (25, 50, 100)
TYPE_E_NS = (3, 4, 5, 6)
TYPE_C_NS = (4, 5)
CT_FAILS = {"swap_rose": ["R"], "suffix_rose": ["Z"]}
FPS_KINDS = {"partial_fps_map": ["partial"], "full_fps_map": ["full"]}
COMMUTE_MAPS = ("rose_cascade", "qe_rose", "exceptional_rose")


def linear_ladder(rng):
    ops = []
    for k in LADDER_KS:
        doc = ladder_doc(k)
        ops.append(Op("check-ct", "k=%d" % k, doc, expect_ct([])))
        ops.append(Op("nielsen", "k=%d" % k, doc, expect_ladder_nielsen(k)))
    # The one lattice check of the ladder, on its cheapest member: B is the
    # only non-fixed edge, so M = 1 and the lattice is all of Z.
    ops.append(Op("disintegrate", "k=25", ladder_doc(25),
                  expect_fields(M=1, rank=1)))
    return ops


def twist_families(rng):
    ops = []
    for fam, ns, make, mode, rank in (
        ("E", TYPE_E_NS, type_e_doc, "general", lambda n: 2 * n - 3),
        ("C", TYPE_C_NS, type_c_doc, "ia", lambda n: 2 * n - 4),
    ):
        for n in ns:
            doc, r = make(n), rank(n)
            label = "%s n=%d" % (fam, n)
            ops.append(Op("disintegrate", label, doc, expect_fields(M=r, rank=r)))
            ops.append(Op("audit", label, doc, expect_fields(passed=True)))
            ops.append(Op("classify", label, doc, expect_classify(r), args=("--mode", mode),
                          reaches=("freegroup.is_IA",) if mode == "ia" else ()))
    return ops


def sample_maps(rng):
    ops = []
    for name, doc in SAMPLE_DOCS.items():
        ops.append(Op("check-ct", name, doc, expect_ct(CT_FAILS.get(name, []))))
        if name in COORDS:
            a = _coords_tuple(rng, name)
            check = expect_coords(name, a)
        else:
            a, check = (1,), expect_rejected
        ops.append(Op("coords", name, doc, check, args=("--tuple", ",".join(map(str, a))),
                      reaches=("intlin.pf_eigenvalue",) if name in LAMBDA else ()))
        ops.append(Op("fps", name, doc, expect_fps(FPS_KINDS.get(name, []))))
    for name in COMMUTE_MAPS:
        a, b = _commute_tuples(rng, name)
        ops.append(Op("verify-commute", name, SAMPLE_DOCS[name], expect_fields(commute=True),
                      args=("--a", ",".join(map(str, a)), "--b", ",".join(map(str, b)))))
    return ops


WORKLOADS = {
    "linear-ladder": linear_ladder,
    "twist-families": twist_families,
    "sample-maps": sample_maps,
}
