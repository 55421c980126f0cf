import itertools

import pytest
from hypothesis import given, strategies as st

from traintrack.paths import (
    MarkedGraph,
    UnionFind,
    inverse,
    word_root,
)
from traintrack.errors import MalformedPath, EndpointMismatch


def rose(names=("A", "B", "C")):
    return MarkedGraph(["v"], [(n, "v", "v") for n in names])


def theta():
    # two vertices, three parallel edges
    return MarkedGraph(["u", "w"], [("P", "u", "w"), ("Q", "u", "w"), ("R", "u", "w")])


# --- oracle: quadratic free reduction by repeated scanning -----------------


def naive_reduce(edges):
    edges = list(edges)
    changed = True
    while changed:
        changed = False
        for i in range(len(edges) - 1):
            if edges[i + 1] == inverse(edges[i]):
                del edges[i : i + 2]
                changed = True
                break
    return tuple(edges)


@st.composite
def rose_words(draw, names=("A", "B", "C"), max_size=14):
    letters = [n for name in names for n in (name, name + "'")]
    return tuple(draw(st.lists(st.sampled_from(letters), max_size=max_size)))


@given(rose_words())
def test_tighten_matches_naive_oracle(word):
    g = rose()
    assert g.tighten(word, base="v").edges == naive_reduce(word)


@given(rose_words())
def test_tighten_idempotent(word):
    g = rose()
    once = g.tighten(word, base="v")
    assert g.tighten(once.edges, base="v") == once


@given(rose_words(), rose_words())
def test_concat_is_reduction_of_concatenation(w1, w2):
    g = rose()
    p, q = g.tighten(w1, base="v"), g.tighten(w2, base="v")
    assert p.concat(q).edges == naive_reduce(w1 + w2)


@given(rose_words())
def test_reverse_involution(word):
    g = rose()
    p = g.tighten(word, base="v")
    assert p.reverse().reverse() == p
    assert p.concat(p.reverse()).is_trivial()


def test_trivial_path_keeps_basepoint():
    g = theta()
    p = g.tighten(["P", "P'"], base="u")
    assert p.is_trivial() and p.start == "u" and p.end == "u"
    q = g.trivial_path("w")
    with pytest.raises(EndpointMismatch):
        g.path(["P"]).concat(g.path(["Q'"])).concat(q.concat(q))  # fine so far
    # concatenating a path ending at w with a trivial path at u must fail
    with pytest.raises(EndpointMismatch):
        g.path(["P"]).concat(g.trivial_path("u"))


def test_path_validation_errors():
    g = theta()
    with pytest.raises(MalformedPath):
        g.path(["P", "Q"])  # both point u->w, not incident
    with pytest.raises(MalformedPath):
        g.path(["P", "P'"])  # backtracking is not tight
    with pytest.raises(MalformedPath):
        g.tighten(["P", "R"])  # tighten still demands incidence
    with pytest.raises(MalformedPath):
        g.path(["X"])
    p = g.path(["P", "Q'"])
    assert p.start == "u" and p.end == "u" and len(p) == 2


@pytest.mark.parametrize("method,edges,message", [
    # an unknown edge anywhere is reported before a bad neighbour pair
    ("path", ["P", "Q", "X"], "unknown edge 'X'"),
    ("tighten", ["P", "Q", "X"], "unknown edge 'X'"),
    ("path", ["P''"], "unknown edge \"P''\""),
    ("tighten", ["X"], "unknown edge 'X'"),
    # otherwise the first bad pair in path order
    ("path", ["P", "P'", "Q"], "path contains backtracking 'P' \"P'\""),
    ("path", ["P", "Q'", "P", "Q"], "edges 'P' and 'Q' are not incident"),
    ("tighten", ["P", "P'", "P", "Q"], "edges 'P' and 'Q' are not incident"),
])
def test_path_validation_messages(method, edges, message):
    with pytest.raises(MalformedPath) as exc:
        getattr(theta(), method)(edges)
    assert str(exc.value) == message


def test_valence_one_rejected_unless_intermediate():
    with pytest.raises(MalformedPath):
        MarkedGraph(["a", "b"], [("E", "a", "b"), ("L", "a", "a")])
    g = MarkedGraph(["a", "b"], [("E", "a", "b"), ("L", "a", "a")], intermediate=True)
    assert len(g.directions("b")) == 1


def test_word_root():
    assert word_root(("a", "b", "a", "b")) == (("a", "b"), 2)
    assert word_root(("a",)) == (("a",), 1)
    assert word_root(("a", "b", "a")) == (("a", "b", "a"), 1)


# --- euler characteristic and subgraph helpers ------------------------------


def test_euler_characteristic():
    g = rose()
    assert g.euler_characteristic() == 1 - 3 == -2
    assert g.rank() == 3  # rank = 1 - chi for connected graphs
    assert g.euler_characteristic(["A"]) == 0
    t = theta()
    assert t.euler_characteristic() == -1
    assert t.rank() == 2
    assert t.euler_characteristic(["P", "Q"]) == 0
    assert t.is_forest(["P"])
    assert not t.is_forest(["P", "Q"])


def test_components_deterministic_order():
    g = MarkedGraph(
        ["a", "b"],
        [("L", "a", "a"), ("M", "b", "b")],
    )
    comps = g.components()
    assert [sorted(es) for _, es in comps] == [["L"], ["M"]]
    assert g.rank(["L", "M"]) == 2
    assert g.components(["M"])[0][0] == frozenset({"b"})


@st.composite
def graphs_with_an_edge_set_and_a_vertex(draw):
    # loops, multi-edges and isolated vertices allowed; either orientation
    # of an edge names it in the set
    nv = draw(st.integers(min_value=1, max_value=5))
    ends = draw(st.lists(
        st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=8
    ))
    g = MarkedGraph(["v%d" % i for i in range(nv)],
                    [("E%d" % k, "v%d" % a, "v%d" % b) for k, (a, b) in enumerate(ends)],
                    intermediate=True)
    sub = draw(st.lists(st.sampled_from(g.directions()), max_size=8)) if ends else []
    return g, sub, draw(st.sampled_from(g.vertices))


@given(graphs_with_an_edge_set_and_a_vertex())
def test_valences_forests_and_tree_paths_read_the_edge_set(case):
    g, sub, u = case
    names = {g.base_of[d] for d in sub}
    assert g.valences(sub) == {
        v: sum(g.base_of[d] in names for d in g.directions(v)) for v in g.vertices
    }
    assert g.valences() == g.valences(g.edge_names)
    assert g.is_forest(sub) == (g.rank(sub) == 0)
    tree = g.tree_paths(u, sub)
    for v, p in tree.items():
        assert g.path(p.edges, base=u) == p and (p.start, p.end) == (u, v)
        assert {g.base_of[d] for d in p.edges} <= names
    component = next((vs for vs, _ in g.components(sub) if u in vs), {u})
    assert set(tree) == component


def test_union_find_root_is_least_member_whatever_the_union_order():
    for unions in itertools.permutations([(0, 1), (3, 2), (1, 2), (5, 4)]):
        uf = UnionFind()
        assert all(uf.union(a, b) for a, b in unions)
        assert not uf.union(2, 0)
        assert [uf.find(x) for x in range(7)] == [0, 0, 0, 0, 4, 4, 6]
    uf = UnionFind(key=lambda x: -x)
    uf.union(1, 2)
    uf.union(0, 1)
    assert uf.find(0) == uf.find(1) == 2


def test_subpath_and_power():
    g = rose()
    p = g.path(["A", "B", "C"])
    assert p.subpath(1, 3).edges == ("B", "C")
    assert p.subpath(1, 1).start == "v"
    w = g.path(["A", "B"])
    assert w.power(2).edges == ("A", "B", "A", "B")
    assert w.power(-1).edges == ("B'", "A'")
    assert w.power(0).is_trivial()


def repeated_concat(w, k):
    """w^k as |k| plain concatenations: the reference for Path.power."""
    core = w if k >= 0 else w.reverse()
    out = w.graph.trivial_path(w.start)
    for _ in range(abs(k)):
        out = out.concat(core)
    return out


@pytest.mark.parametrize(
    "graph, edges",
    [
        (rose(), ["A"]),
        (rose(), ["A", "B"]),
        (rose(), ["A", "B", "A'"]),  # p.c.p^-1 with p = A, c = B
        (rose(), ["A", "B", "C", "B", "A'"]),  # p = A, c = B C B
        (rose(), ["A", "B'", "C", "C", "B", "A'"]),  # p = A B', c = C C
        (theta(), ["P", "Q'"]),
        (theta(), ["P", "Q'", "R", "P'"]),  # based at u, not cyclically reduced
        (theta(), []),
    ],
)
def test_power_matches_repeated_concat(graph, edges):
    w = graph.path(edges, base=graph.vertices[0])
    for k in range(-6, 7):
        got = w.power(k)
        assert got == repeated_concat(w, k), k
        assert got.start == w.start and got.end == w.start


def test_power_of_open_path_is_refused():
    with pytest.raises(EndpointMismatch):
        theta().path(["P"]).power(2)


@given(rose_words(), rose_words(), st.integers(-5, 5))
def test_power_of_conjugate_matches_repeated_concat(w1, w2, k):
    g = rose()
    p, c = g.tighten(w1, base="v"), g.tighten(w2, base="v")
    w = p.concat(c).concat(p.reverse())
    assert w.power(k) == repeated_concat(w, k)

    def bar(word):
        return tuple(inverse(x) for x in reversed(word))

    middle = w2 * k if k >= 0 else bar(w2) * -k
    assert w.power(k).edges == naive_reduce(w1 + middle + bar(w1))
