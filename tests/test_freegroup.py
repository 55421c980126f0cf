"""Tests for words, folding, abelianization and outer-class comparison."""

import random

import numpy as np
import pytest

from traintrack.errors import MalformedPath
from traintrack.freegroup import (
    abelianization,
    homology_class,
    is_IA,
    pi1_basis,
    pi1_images,
    reduce_word,
    spanning_tree,
)
from traintrack.maps import GraphMap, compose
from traintrack.paths import MarkedGraph, cyclic_decompose, inverse, word_root
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

from oracles import (
    SubgroupGraph,
    conjugate,
    det,
    differ_by_inner,
    identity_map,
    inner_twist_pair,
    is_surjective,
    map_is_pi1_surjective,
    word_concat,
    word_inverse,
)


def _rose(names):
    return MarkedGraph(["v"], [(n, "v", "v") for n in names])


def _map(g, images):
    return GraphMap(g, {e: g.path(seq.split()) for e, seq in images.items()})


def test_word_utilities():
    assert reduce_word(["A", "B", "B'", "A"]) == ("A", "A")
    assert word_inverse(("A", "B'")) == ("B", "A'")
    assert word_concat(("A", "B"), ("B'", "C")) == ("A", "C")
    assert conjugate(("A",), ("B",)) == ("A", "B", "A'")


def test_spanning_tree_partial_fps():
    g = partial_fps_map().graph
    paths, tree_edges = spanning_tree(g)
    assert tree_edges == {"E2", "E3"}
    assert paths["v2"].edges == ("E2'",)
    assert paths["v3"].edges == ("E3'",)
    assert pi1_basis(g) == ["E1", "P", "Q"]


def test_spanning_tree_disconnected():
    g = MarkedGraph(["x", "y"], [("A", "x", "x"), ("B", "y", "y")])
    with pytest.raises(MalformedPath):
        spanning_tree(g)


def test_pi1_images_identity_is_basis():
    m = identity_map(_rose(["A", "B"]))
    assert pi1_images(m) == [("A",), ("B",)]


def test_pi1_images_cascade():
    assert pi1_images(rose_cascade()) == [("A",), ("B", "A"), ("C", "B")]


def test_pi1_images_across_tree():
    words = pi1_images(partial_fps_map())
    assert words[0] == ("E1",)
    assert words[1] == (
        "P", "E1", "Q", "E1", "E1", "Q'", "E1'", "P'", "E1'", "P", "E1",
    )
    assert words[2] == ("E1'", "P'", "E1", "P", "E1", "Q", "E1", "E1")


def test_is_surjective_basic():
    assert is_surjective([("x1",), ("x2",)], ["x1", "x2"])
    assert not is_surjective(
        [("x1",), ("x1", "x2"), ("x2",)], ["x1", "x2", "x3"]
    )
    assert is_surjective([("x1",), ("x1", "x2")], ["x1", "x2"])


def test_sample_maps_surjectivity():
    f1, f2 = inner_twist_pair()
    for m in (
        rose_cascade(),
        qe_rose(),
        exceptional_rose(),
        swap_rose(),
        partial_fps_map(),
        full_fps_map(),
        f1,
        f2,
    ):
        assert map_is_pi1_surjective(m), m.name
    # The image of suffix_rose misses the top edge entirely, and
    # zero_stratum_map folds to a proper core; neither is pi1-onto.
    assert not map_is_pi1_surjective(suffix_rose())
    assert not map_is_pi1_surjective(zero_stratum_map())


def test_iterated_map_stays_surjective():
    m = qe_rose()
    m4 = compose(m, compose(m, compose(m, m)))
    assert map_is_pi1_surjective(m4)


def test_fold_confluent_under_shuffles():
    words = pi1_images(zero_stratum_map())
    gens = pi1_basis(zero_stratum_map().graph)
    forms = []
    for seed in range(5):
        sg = SubgroupGraph(gens)
        for w in words:
            sg.add_word(w)
        sg.fold(rng=random.Random(seed))
        sg.prune()
        forms.append(sg.canonical_form())
    assert all(f == forms[0] for f in forms)


def test_abelianization_cascade():
    assert abelianization(rose_cascade()) == [
        [1, 1, 0],
        [0, 1, 1],
        [0, 0, 1],
    ]
    assert not is_IA(rose_cascade())


def test_commutator_twist_is_ia():
    g = _rose(["x1", "x2", "E"])
    m = _map(g, {"x1": "x1", "x2": "x2", "E": "E x1 x2 x1' x2'"})
    assert is_IA(m)


def test_abelianization_multiplies_under_composition():
    m1 = qe_rose()
    m2 = compose(m1, m1)
    a1 = np.array(abelianization(m1))
    assert (np.array(abelianization(m2)) == a1 @ a1).all()


def test_det_is_unit_for_homotopy_equivalences():
    for m in (rose_cascade(), qe_rose(), full_fps_map(), partial_fps_map()):
        mat = abelianization(m)
        assert det(mat) in (1, -1)
        assert round(float(np.linalg.det(np.array(mat, dtype=float)))) == det(mat)


def test_homology_class():
    g = _rose(["A", "B", "C"])
    assert homology_class(g.trivial_path("v")) == (0, 0, 0)
    assert homology_class(g.path(["B", "A"])) == (1, 1, 0)
    assert homology_class(g.path(["A", "B", "A'", "B'"])) == (0, 0, 0)
    m = partial_fps_map()
    with pytest.raises(MalformedPath):
        homology_class(m.graph.path(["P"]))


def test_downstream_invariance_under_tree_choice():
    m = partial_fps_map()
    default = spanning_tree(m.graph)
    other = spanning_tree(m.graph, base="v2")
    assert other[1] != default[1] or other[0]["v2"].is_trivial()
    for tree in (default, other):
        words = pi1_images(m, tree)
        assert is_surjective(words, pi1_basis(m.graph, tree))
        assert abs(det(abelianization(m, tree))) == 1
        assert not is_IA(m, tree)


def test_differ_by_inner_twist_pair():
    f1, f2 = inner_twist_pair()
    c = differ_by_inner(f1, f2)
    assert c == ("E1",)
    for u, v in zip(pi1_images(f1), pi1_images(f2)):
        assert u == conjugate(c, v)
    assert differ_by_inner(f1, f1) == ()


def _conjugated(m, c):
    """The rose map whose images are c . (m's images) . c^-1."""
    g = m.graph
    words = [reduce_word(c + w + word_inverse(c)) for w in pi1_images(m)]
    return GraphMap(g, {e: g.path(list(w)) for e, w in zip(pi1_basis(g), words)})


@pytest.mark.parametrize("n", [9, 20, 60, 2000])
def test_differ_by_inner_finds_long_powers(n):
    # the search once stopped at z^8 and answered None, "not inner", from
    # A^9 on
    m2 = _map(_rose(["A", "B"]), {"A": "A", "B": "B A"})
    c = ("A",) * n
    assert differ_by_inner(_conjugated(m2, c), m2) == c


_INVERSE = {x: inverse(x) for x in ("A", "B", "C")}
_INVERSE.update({y: x for x, y in _INVERSE.items()})


def _reduced(letters):
    out = []
    for x in letters:
        if out and out[-1] == _INVERSE[x]:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def reference_differ_by_inner(m1, m2, window=60):
    """The bounded search differ_by_inner replaced: rotation matching on the
    first pair of non-trivial images, candidates p.z^k.d.q^-1 for every
    matching rotation d and |k| <= window, the shortest working one first."""
    w1, w2 = pi1_images(m1), pi1_images(m2)

    def works(c):
        return all(u == _reduced(c + v + word_inverse(c)) for u, v in zip(w1, w2))

    if works(()):
        return ()
    u, v = next((u, v) for u, v in zip(w1, w2) if u and v)
    p, ucore = cyclic_decompose(u)
    q, vcore = cyclic_decompose(v)
    z, _ = word_root(ucore)
    candidates = []
    for r in range(len(ucore)):
        if ucore[r:] + ucore[:r] == vcore:
            for k in range(-window, window + 1):
                zk = z * k if k >= 0 else word_inverse(z) * -k
                candidates.append(_reduced(p + zk + ucore[:r] + word_inverse(q)))
    candidates.sort(key=lambda c: (len(c), c))
    return next((c for c in candidates if works(c)), None)


def _random_word(rng, letters, lo, hi):
    return reduce_word(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _random_conjugate_pair(rng):
    g = _rose(["A", "B", "C"])
    letters = ["A", "B", "C", "A'", "B'", "C'"]
    if rng.random() < 0.5:
        words = [()]
        while not all(words):
            words = [_random_word(rng, letters, 1, 6) for _ in range(3)]
    else:
        w = ()
        while not w:
            w = cyclic_decompose(_random_word(rng, letters, 1, 3))[1]
        words = [
            w * e if e > 0 else word_inverse(w) * -e
            for e in (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
        ]
    m2 = GraphMap(g, {e: g.path(list(w)) for e, w in zip("ABC", words)})
    if rng.random() < 0.5:
        c = _random_word(rng, letters, 0, 8)
    else:
        j = rng.randint(-15, 15)
        power = words[0] * j if j >= 0 else word_inverse(words[0]) * -j
        c = reduce_word(power + _random_word(rng, letters, 0, 2))
    return _conjugated(m2, c), m2


@pytest.mark.parametrize("seed", range(10))
def test_differ_by_inner_matches_the_wide_search(seed):
    rng = random.Random(seed)
    for _ in range(100):
        m1, m2 = _random_conjugate_pair(rng)
        c = differ_by_inner(m1, m2)
        assert c is not None
        for u, v in zip(pi1_images(m1), pi1_images(m2)):
            assert u == reduce_word(c + v + word_inverse(c))
        assert c == reference_differ_by_inner(m1, m2)


def test_differ_by_inner_negative():
    g = _rose(["A", "B"])
    m1 = _map(g, {"A": "A", "B": "B A"})
    g2 = _rose(["A", "B"])
    m2 = _map(g2, {"A": "A", "B": "B A'"})
    assert differ_by_inner(m1, m2) is None
