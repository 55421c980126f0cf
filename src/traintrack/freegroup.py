"""Free-group words, the induced map on pi1, abelianization and homology.

Words are tuples of oriented basis letters using the same apostrophe
convention as edge paths ("x", "x'").  The induced map on the fundamental
group is read off a breadth-first spanning tree; its class is well defined
only up to inner automorphisms, so everything downstream (abelianization,
IA-ness) is invariant under the tree choice.
"""

from .errors import MalformedPath
from .paths import base_name, inverse


def reduce_word(letters):
    """Freely reduce a letter sequence."""
    out = []
    for x in letters:
        if out and out[-1] == inverse(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


# -- spanning trees and induced words -------------------------------------------


def spanning_tree(g, base=None):
    """Breadth-first tree from ``base`` (default: least vertex).

    Returns (paths, tree_edges): a dict carrying the tree path from the
    base to every vertex, and the set of tree edge names.  Raises on
    disconnected graphs.
    """
    base = g.vertices[0] if base is None else base
    paths = g.tree_paths(base)
    if len(paths) != len(g.vertices):
        raise MalformedPath("graph is not connected")
    return paths, {g.base_of[p.edges[-1]] for p in paths.values() if p.edges}


def pi1_basis(g, tree=None):
    """Non-tree edge names, in construction order."""
    _, tree_edges = tree if tree is not None else spanning_tree(g)
    return [e for e in g.edge_names if e not in tree_edges]


def path_word(path, tree):
    """The word of a based loop: its non-tree letters in order."""
    _, tree_edges = tree
    return reduce_word(
        d for d in path.edges if base_name(d) not in tree_edges
    )


def pi1_images(m, tree=None):
    """Images of the basis loops under the induced endomorphism.

    One word per non-tree edge, in construction order; the image loop is
    carried back to the base point along the tree path to f(base).
    """
    g = m.graph
    tree = tree if tree is not None else spanning_tree(g)
    paths, tree_edges = tree
    base = next(v for v, p in paths.items() if p.is_trivial())
    carry = paths[m.vertex_map[base]]
    out = []
    for e in pi1_basis(g, tree):
        loop = paths[g.init(e)].concat(g.path([e])).concat(
            paths[g.term(e)].reverse()
        )
        img = carry.concat(m.apply(loop)).concat(carry.reverse())
        out.append(path_word(img, tree))
    return out


# -- abelianization --------------------------------------------------------------


def abelianization(m, tree=None):
    """Matrix of the induced map on first homology over the pi1 basis.

    Column j holds the exponent vector of the image of the j-th
    generator, so composite maps multiply in application order.
    """
    g = m.graph
    tree = tree if tree is not None else spanning_tree(g)
    gens = pi1_basis(g, tree)
    idx = {x: i for i, x in enumerate(gens)}
    n = len(gens)
    mat = [[0] * n for _ in range(n)]
    for j, word in enumerate(pi1_images(m, tree)):
        for letter in word:
            mat[idx[base_name(letter)]][j] += -1 if letter.endswith("'") else 1
    return mat


def is_IA(m, tree=None):
    """Does the map act as the identity on first homology?"""
    mat = abelianization(m, tree)
    n = len(mat)
    return all(
        mat[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n)
    )


def homology_class(path, tree=None):
    """Signed edge counts of a closed path, projected to the cycle space.

    Coordinates run over the non-tree edges; a closed path is determined
    in homology by these alone.
    """
    if not path.is_closed():
        raise MalformedPath("homology class needs a closed path")
    g = path.graph
    tree = tree if tree is not None else spanning_tree(g)
    gens = pi1_basis(g, tree)
    idx = {x: i for i, x in enumerate(gens)}
    out = [0] * len(gens)
    for d in path.edges:
        b = base_name(d)
        if b in idx:
            out[idx[b]] += -1 if d.endswith("'") else 1
    return tuple(out)
