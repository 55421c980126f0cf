"""Free-group words, folding, abelianization and outer-class comparison.

Words are tuples of oriented basis letters using the same apostrophe
convention as edge paths ("x", "x'").  The induced map on the fundamental
group is read off a breadth-first spanning tree; its class is well defined
only up to inner automorphisms, so everything downstream (surjectivity,
abelianization determinant, IA-ness) is invariant under the tree choice.

A surjective endomorphism of a finite-rank free group is an automorphism
(free groups are Hopfian), so the fold-based surjectivity check is the
whole homotopy-equivalence test.
"""

from .errors import MalformedPath
from .paths import Path, UnionFind, base_name, cyclic_decompose, inverse, word_root


def reduce_word(letters):
    """Freely reduce a letter sequence."""
    out = []
    for x in letters:
        if out and out[-1] == inverse(x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def word_inverse(word):
    return tuple(inverse(x) for x in reversed(word))


def word_concat(*words):
    """The reduced product of words that must be reduced: each cancels only
    against the end of the product so far, the seam rule of
    :meth:`MarkedGraph.seam_extend`."""
    out = []
    for w in words:
        i = 0
        while i < len(w) and out and out[-1] == inverse(w[i]):
            out.pop()
            i += 1
        out.extend(w[i:])
    return tuple(out)


def conjugate(c, word):
    """c . word . c^-1, reduced."""
    return word_concat(c, word, word_inverse(c))


# -- spanning trees and induced words -------------------------------------------


def spanning_tree(g, base=None):
    """Breadth-first tree from ``base`` (default: least vertex).

    Returns (paths, tree_edges): a dict carrying the tree path from the
    base to every vertex, and the set of tree edge names.  Raises on
    disconnected graphs.
    """
    base = g.vertices[0] if base is None else base
    paths = {base: g.trivial_path(base)}
    tree_edges = set()
    queue = [base]
    while queue:
        v = queue.pop(0)
        for d in g.directions(v):
            w = g.term(d)
            if w not in paths:
                paths[w] = Path(g, paths[v].edges + (d,))
                tree_edges.add(base_name(d))
                queue.append(w)
    if len(paths) != len(g.vertices):
        raise MalformedPath("graph is not connected")
    return paths, tree_edges


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


# -- folding ---------------------------------------------------------------------


class SubgroupGraph:
    """Basis-labeled based graph; folded, it immerses into the rose.

    Edges are (u, letter, v) triples over integer vertices, 0 the base.
    """

    def __init__(self, generators):
        self.generators = list(generators)
        self.edges = []
        self._next = 1

    def add_word(self, word):
        """Thread a loop spelling ``word`` through fresh vertices."""
        word = reduce_word(word)
        if not word:
            return
        v = 0
        for i, x in enumerate(word):
            w = 0 if i == len(word) - 1 else self._next
            if w != 0:
                self._next += 1
            if x.endswith("'"):
                self.edges.append((w, base_name(x), v))
            else:
                self.edges.append((v, x, w))
            v = w

    def fold(self, rng=None):
        """Identify targets of same-label same-direction edge pairs until
        none remain.  The result is independent of the processing order;
        ``rng`` (random.Random) shuffles it to let tests exercise that."""
        classes = UnionFind()
        find = classes.find
        changed = True
        while changed:
            changed = False
            pairs = {}
            edges = list(self.edges)
            if rng is not None:
                rng.shuffle(edges)
            for u, letter, v in edges:
                u, v = find(u), find(v)
                for key, other in (((u, letter, "out"), v), ((v, letter, "in"), u)):
                    seen = pairs.get(key)
                    if seen is None:
                        pairs[key] = other
                    elif classes.union(seen, other):
                        changed = True
            self.edges = sorted(
                {(find(u), letter, find(v)) for u, letter, v in self.edges}
            )

    def prune(self):
        """Remove valence-one vertices other than the base, repeatedly."""
        while True:
            degree = {}
            for u, _, v in self.edges:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            drop = {x for x, d in degree.items() if d == 1 and x != 0}
            if not drop:
                return
            self.edges = [
                (u, letter, v)
                for u, letter, v in self.edges
                if u not in drop and v not in drop
            ]

    def vertices(self):
        out = {0}
        for u, _, v in self.edges:
            out.add(u)
            out.add(v)
        return out

    def is_full_rose(self):
        """One vertex and every generator looping at it exactly once."""
        if self.vertices() != {0}:
            return False
        labels = sorted(letter for _, letter, _ in self.edges)
        return labels == sorted(self.generators)

    def canonical_form(self):
        """Edge list relabeled by breadth-first discovery from the base."""
        names = {0: 0}
        order = [0]
        out_by = {}
        for u, letter, v in self.edges:
            out_by.setdefault(u, []).append((letter, v, False))
            out_by.setdefault(v, []).append((letter, u, True))
        i = 0
        while i < len(order):
            x = order[i]
            i += 1
            for letter, y, _ in sorted(out_by.get(x, [])):
                if y not in names:
                    names[y] = len(names)
                    order.append(y)
        return sorted(
            (names[u], letter, names[v]) for u, letter, v in self.edges
        )


def is_surjective(words, generators):
    """Do the words generate the whole free group on ``generators``?

    Folds the wedge of the loops; the subgroup is everything exactly when
    the folded, pruned graph is the full rose (an index-one subgroup).
    """
    sg = SubgroupGraph(generators)
    for w in words:
        sg.add_word(w)
    sg.fold()
    sg.prune()
    return sg.is_full_rose()


def map_is_pi1_surjective(m, tree=None):
    g = m.graph
    tree = tree if tree is not None else spanning_tree(g)
    return is_surjective(pi1_images(m, tree), pi1_basis(g, tree))


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


# -- outer-class comparison ------------------------------------------------------


def differ_by_inner(m1, m2):
    """A word c with (m1 on pi1) = c . (m2 on pi1) . c^-1, or None when there
    is none; the maps act on graphs sharing edge names.

    Take the first pair (u, v) of non-trivial images, u = p.ucore.p^-1 and
    v = q.vcore.q^-1 with the cores cyclically reduced, z the root of ucore
    and d the shortest prefix of ucore with vcore = d^-1.ucore.d (none: no
    conjugator).  The words conjugating v to u are c_k = p.z^k.d.q^-1, k in
    Z, and c_k conjugates an image V to U iff z^k.X.z^-k = U' for
    X = [d.q^-1.V.q.d^-1] and U' = [p^-1.U.p].  Two facts bound k:

    * If z^k.X.z^-k = U' with X not in <z>, then 2(|k| - 1)|z| < |U'| + |X|,
      and no other k works (two would make a power of z commute with X).
      Proof for k >= 2 (k <= -2: use z^-1).  Reducing z^k.X.z^-k cancels c
      pairs and |U'| = 2k|z| + |X| - 2c, so the claim is c < |X| + |z|.  If
      a letter of X survives, every pair holds one of X: c <= |X|.  Else
      X = s^-1.t, s and t suffixes of z^k, and the rests of z^k and z^-k
      cancel c - |X| more pairs: the common suffix of two prefixes of z^k,
      of lengths k|z| - |s| and k|z| - |t|.  Were it >= |z| long, these
      lengths would agree mod |z| (z is not a proper power), so s = r.z^i,
      t = r.z^j for a suffix r of z, and X = z^(j - i) would lie in <z>.
    * If every X lies in <z>, every c_k works or none does, and as
      |k||z| - |p| - |d| - |q| <= |c_k| and |c_0| <= |p| + |d| + |q|, the
      shortest working c_k has |k||z| <= 2(|p| + |d| + |q|).

    As |U'| <= |U| + 2|p| and |X| <= |V| + 2|q| + 2|d|, the window
    |k| <= (sum of all |U| + |V| + 2(|p| + |q| + |d|)) / |z| + 1 holds both
    cases: its shortest working candidate (least word on ties) is the
    shortest of all, and None is exact.  The window is walked by |k|, and
    the walk stops once |k||z| - |p| - |d| - |q| exceeds the best length.
    """
    w1, w2 = pi1_images(m1), pi1_images(m2)
    if pi1_basis(m1.graph) != pi1_basis(m2.graph) or len(w1) != len(w2):
        return None

    def works(c):
        return all(u == conjugate(c, v) for u, v in zip(w1, w2))

    if works(()):
        return ()
    pair = next(((u, v) for u, v in zip(w1, w2) if u and v), None)
    if pair is None:
        return None
    p, ucore = cyclic_decompose(pair[0])
    q, vcore = cyclic_decompose(pair[1])
    z, _ = word_root(ucore)
    r = next((r for r in range(len(z)) if ucore[r:] + ucore[:r] == vcore), None)
    if r is None:
        return None
    d = ucore[:r]
    slack = len(p) + len(d) + len(q)
    window = (sum(map(len, w1 + w2)) + 2 * slack) // len(z) + 1
    best = None
    for k in sorted(range(-window, window + 1), key=abs):
        if best is not None and abs(k) * len(z) - slack > len(best):
            break
        c = word_concat(p, z * k if k >= 0 else word_inverse(z) * -k, d, word_inverse(q))
        if (best is None or (len(c), c) < (len(best), best)) and works(c):
            best = c
    return best
