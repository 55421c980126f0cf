"""Nielsen paths, linear edges, axes, quasi-exceptional families, splittings.

A Nielsen path is a nontrivial path sigma with f_#(sigma) = sigma.  The
catalog search develops the rays of f from its fixed directions and lists
their "stable prefixes": paths p starting with a fixed direction such that
f_#(p) = p.s for some suffix s.  Two stable prefixes p, q with one common
suffix s pair into sigma = p.reverse(q), and

    f_#(sigma) = [p.s.reverse(s).reverse(q)] = sigma,

so every pair is Nielsen; conversely, for stable p, q with one end,
[p.s_p.reverse(s_q).reverse(q)] = p.reverse(q) forces the tight s_p, s_q to
be equal: s_p = s_q iff p.reverse(q) is Nielsen.  The search keys suffixes
by (length, first edge, last edge) and compares them only where keys meet.
The catalog lists these pairs up to the length bound and makes no claim
beyond it.  It does not list every Nielsen path within the bound: a ray
that starts with a fixed edge stops at length one, so concatenations such
as ``E1 E1 E1`` over a fixed edge E1 are never paired (on ``qe_rose`` at
bound 6 the catalog holds 9 of the 97 Nielsen paths of length >= 2 that
brute force over tight paths finds), and on maps that are not train
tracks indivisible Nielsen paths can be missed as well.

Composite test: if sigma = alpha.beta and f_#(alpha) = alpha, then
f_#(beta) = [reverse(alpha).f_#(sigma)] = beta.  So sigma = p.reverse(q) is
composite exactly when a prefix of p or a proper prefix of q is Nielsen (q
is Nielsen only when p is).  The sweep that finds the stable prefixes marks
each one that has a Nielsen prefix, so the indivisible flag of every listed
path is exact and does not need the catalog to be complete.

Linear families: for a linear edge E, f(E) = E.w^d with w a closed Nielsen
path, every E w^k Ebar is Nielsen.  E's ray is read off f(E) without
applying f; one period of it is swept and the rest kept as runs (lemma in
:func:`_stable_prefixes`).  The search recognises the pairs that give these
paths as one family per E, checks one member exactly (that decides the
whole family) and keeps it compact: E, the body b (w or reverse(w)) and one
(k, composite flag) record per member within the bound, a member that
another pair gives included.  The search itself keeps each family pair
as a descriptor of its two runs of prefixes, and only
:func:`build_catalog` expands those into records.  Complete splitting,
the CT check and the ``nielsen`` report read the records (the report
through :attr:`NielsenCatalog.listing`), and so do the f_a checks of
:mod:`disintegrate`, which test one member per family; the members are
written out as paths only on the first read of ``entries``, by the tests,
the test-only ``inps`` or perfbench's tracer.

Periodic Nielsen paths (f^k_#(sigma) = sigma, minimal k in 2..period_bound)
are found by the same search run on f^k, among the paths that are not
already fixed: a candidate that is a period-one Nielsen path of the catalog
is dropped before any f^k_# work, and a family pair of a linear edge stays
an unexpanded descriptor.  Only the CT check and the ``nielsen`` report
read them, so that search runs the first time a catalog's ``periodic``
list or its ``budgets_hit`` notes are read, not when the catalog is built.

The restriction f|S of f to an invariant edge set S (a filtration prefix)
has as Nielsen paths exactly those of f that lie in S, since f_# of a path
there is computed there, and its edge images split as under f
(:meth:`NielsenCatalog.image_qe_split`): f's catalog serves the prefix
without a search of its own, and the prefix is disintegrated on f's own
graph, through its filtration (:func:`maps.restrict`), not as a map of its
own.
"""

from functools import cache, cached_property
from itertools import chain, combinations, islice, product

from .paths import Circuit, Path, inverse
from .maps import filtration, direction_map, illegal_turns, compose
from .errors import LViolation, NotCompletelySplit

TERM_EDGE = "edge"
TERM_INP = "inp"
TERM_EXC = "exceptional"
TERM_CONN = "connecting"
TERM_QE = "qe"


def is_nielsen_path(m, p):
    """Exact check f_#(p) = p (no bound involved)."""
    return not p.is_trivial() and m.apply(p) == p


def default_length_bound(m):
    """Length horizon for the catalog search: four times the longest edge
    image plus slack, enough to cover the splittings of every f(E)."""
    maxlen = max(len(p) for p in m.edge_images.values())
    return 4 * maxlen + 8


def _path_key(g, p):
    return list(map(g.order_key.__getitem__, p.edges))


def _lesser_orientation(order_key, fwd, bwd):
    """Of an edge tuple and its reverse, the one with the smaller order key
    list (``fwd`` on a tie), compared up to the first edge where they
    differ."""
    for x, y in zip(fwd, bwd):
        if x != y:
            return fwd if order_key[x] < order_key[y] else bwd
    return fwd


def _stable_prefixes(m, bound, iter_cap=None, linear=None):
    """(ray, n, step, end, suffix key, split, direction) for the stable
    prefixes p = ray[:n], and ray[:n + step], ray[:n + 2 step], ... up to
    the bound when step > 0: f_#(p) = p.suffix, ``end`` p's terminal
    vertex, the suffix keyed, uncopied, by (length, first edge, last edge)
    or (0,) when empty (equal suffixes, equal keys), split true when a
    prefix of p is Nielsen and ``direction`` the fixed direction whose ray
    p was read off; and (direction, iter_cap) for each fixed direction
    whose ray ran out of iterates.  Rays are edge tuples, never copied per
    prefix.

    Prefixes start with a fixed direction.  The limit ray of a fixed
    direction is developed incrementally -- once the reduced image extends
    the current prefix, the next ray edge is read off the image -- so one
    sweep costs O(bound * max edge image).  Rays whose images shrink or
    oscillate are additionally chased by direct iteration (capped), with
    every iterate swept the same way.  A ray that is still neither
    repeating nor longer than the bound after ``iter_cap`` iterates is cut
    there; its direction is returned so the catalog can say so.

    A ray stops at the first iterate longer than bound + 2, so the f_# of
    that iterate is the ray's last, and the sweeps read only its first
    ``bound`` edges.  That step takes only this head (:func:`_image_head`)
    and tests it for nesting on the pending iterate cut to ``bound`` edges:
    where the head nests there but the whole image does not, they share
    their first ``bound`` edges, so the second of the two sweeps the whole
    image takes records nothing.  When no seam between consecutive edge
    images cancels, f_# is their concatenation, and its head is read off
    the images without writing the rest; when one cancels, as on the rays
    through E2 E1^k E2' of the FPS maps, f_# is still taken whole.

    Whether a prefix is stable, its suffix and its split flag depend on the
    prefix alone, so a sequence's first edges that an earlier swept
    sequence shares were recorded with it and are not recorded again.

    ``linear`` maps linear edges E to their axes w, f(E) = E.v, v = [w^D]
    (on f^k, D is k times f's exponent).  As f_#(w) = w, the j-th iterate
    of E's ray is E.[w^(jD)]: no f is applied and no cap cuts it.  When w
    is cyclically reduced the iterates nest into E w w w ..., and

    *Lemma.*  Let p = E w^i x, x a nonempty prefix of w, L >= |w| and L >=
    |f_#(x)| for all such x.  For i >= i0 = max(0, ceil(L/|w|) - D), p's
    stability, suffix key, end and last edge do not depend on i, nor, for
    i > i0, its split flag.  *Proof.*  f_#(p) = [E w^(D+i) y], y =
    f_#(x).  As (D+i)|w| >= |y|, the c <= |y| edges of w^(D+i) cancelled
    against y are read off its last |y| edges, so c does not depend on i
    (if all of w^(D+i) cancels, p is stable for no i).  So f_#(p) = E
    W[:a] y[c:] and p = E W[:i|w| + |x|], W = w w ..., a = (D+i)|w| - c:
    where they differ, the length difference D|w| - 2c + |y| - |x|, the
    edge of f_#(p) at |p| and its last edge sit at offsets that move with
    i by multiples of |w|, so they read the same letters.  The split flag
    ORs the Nielsen flags of shorter prefixes, and from period i0 on each
    period adds the same ones.  []

    So E and periods 0..i0+1 are swept (L: the larger of |w| and the image
    length of w's first |w| - 1 edges), or on to one period past what an
    earlier sequence shares, and each record of the last period swept is a
    run with step |w|.  An axis that is not cyclically reduced makes f(E) =
    E.u fail to split, so only maps that are not CTs have one; its
    direction takes the direct iteration.
    """
    if iter_cap is None:
        iter_cap = bound + 16
    g = m.graph
    image_of, term_of, inverse_of = m.image_of, g.term_of, g.inverse_of
    linear = linear or {}
    dm = direction_map(m)
    found = []
    swept = []
    capped = []

    def sweep(edge_seq, d, stop=bound, period=0):
        # img carries the reduced f-image of the growing prefix; ``agree``
        # is the verified common-prefix length, rewound when cancellation
        # pops below it, so the whole sweep is linear in the work f does.
        edge_seq = edge_seq[:bound]
        done = max((_common_prefix_length(prev, edge_seq) for prev in swept), default=0)
        stop = max(stop, done + period)  # runs start past the shared prefix
        swept.append(edge_seq)
        img = []
        agree = 0
        split = False
        for n, e in enumerate(edge_seq[:stop], 1):
            im = image_of[e]
            if img and img[-1] == inverse_of[im[0]]:
                agree = min(agree, g.seam_extend(img, (im,)))
            else:
                img.extend(im)  # no seam: agree <= len(img) stays valid
            while agree < n and agree < len(img) and img[agree] == edge_seq[agree]:
                agree += 1
            if agree == n and len(img) >= n:
                split = split or len(img) == n  # edge_seq[:n] is Nielsen
                if n > done:
                    rest = len(img) - n
                    key = (rest, img[n], img[-1]) if rest else (0,)
                    step = period if n + period > stop else 0
                    found.append((edge_seq, n, step, term_of[e], key, split, d))

    for d in g.directions():
        if dm.map[d] != d:
            continue
        w = linear.get(d)
        if w is not None and w[0] != inverse_of[w[-1]]:
            v = image_of[d][1:]
            lw = len(w)
            bulk = max(lw, sum(len(image_of[e]) for e in w[:-1]))  # L of the lemma
            i0 = max(0, -(-bulk // lw) - len(v) // lw)
            sweep((d,) + w * (bound // lw + 1), d, 1 + (i0 + 2) * lw, lw)
            continue
        ray = g.path([d])
        seen = {}  # earlier iterates by length: compared, never hashed
        pending = ray
        for _ in range(iter_cap):
            if len(ray) > bound + 2:  # the last f_#: sweeps read ``bound`` edges
                nxt, pending = _image_head(m, ray, bound), Path(g, pending.edges[:bound])
            else:
                nxt = m.apply(ray)
            stop = (
                nxt.is_trivial()
                or nxt.edges == ray.edges
                or nxt.edges in seen.get(len(nxt), ())
                or len(ray) > bound + 2
            )
            if not nxt.is_trivial() and not nxt.starts_with(pending):
                sweep(pending.edges, d)
                pending = nxt
            else:
                pending = nxt if not nxt.is_trivial() else pending
            if stop:
                break
            seen.setdefault(len(nxt), []).append(nxt.edges)
            ray = nxt
        else:
            capped.append((d, iter_cap))
        sweep(pending.edges, d)
    return found, capped


def _image_head(m, ray, n):
    """The first n >= 1 edges of f_#(ray), as a path.  If no seam of the
    edge images cancels -- the last edge of each image is not inverse to
    the first edge of the next -- their concatenation is tight, so it is
    f_#(ray) and its head is read off the images; otherwise f_# is taken
    whole and cut."""
    images = list(map(m.image_of.__getitem__, ray.edges))
    inverse_of = m.graph.inverse_of
    if any(a[-1] == inverse_of[b[0]] for a, b in zip(images, images[1:])):
        nxt = m.apply(ray)
        return nxt if len(nxt) <= n else Path(m.graph, nxt.edges[:n])
    return Path(m.graph, islice(chain.from_iterable(images), n))


def _growth_suffix(m, p):
    """The list s with f_#(p) = p.s, for a stable prefix p (edge tuple)."""
    img = []
    m.graph.seam_extend(img, map(m.image_of.__getitem__, p))
    return img[len(p):]


def _common_prefix_length(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class NielsenEntry:
    """One catalog item: a Nielsen path of some period with flags.

    ``family`` is the linear edge E when the path is a member E w^k Ebar of
    E's linear family (built in closed form, see :func:`build_catalog`),
    None otherwise.
    """

    def __init__(self, path, period, indivisible, height, family=None):
        self.path = path
        self.period = period
        self.indivisible = indivisible
        self.height = height
        self.family = family

    def __repr__(self):
        tag = "iNp" if self.indivisible else "composite"
        return "<%s period %d %r>" % (tag, self.period, self.path)


class NielsenCatalog:
    """Nielsen paths of a map found within a length bound.

    * ``fixed_edges``: edges with f(E) = E (length-one Nielsen paths; kept
      apart from iNps, which have length at least two).
    * ``families``: the linear families, ``{E: (b, records, height)}``: the
      members are E b^i Ebar, one per record (i, composite flag), i
      ascending, b the body in the orientation the catalog lists, height
      E's level.  No member is kept as a path.
    * ``generic``: the other period-one entries, each its own path.
    * ``listing``: the period-one Nielsen paths p.reverse(q) of length 2..
      ``bound`` paired from stable prefixes (not every Nielsen path within
      the bound; see the module docstring), in (length, order key) order:
      each generic entry as its :class:`NielsenEntry`, each family member
      as its record (E, b, i, composite flag), its edge tuple built only
      to order it among items of its length.  The ``nielsen`` report
      reads this.
    * ``entries``: the same paths as ``NielsenEntry`` objects, each
      flagged indivisible or composite, exactly, with its filtration
      height: the family members written out in closed form on the first
      read and marked with ``family``.  Only the tests, ``inps`` (itself
      read by tests) and perfbench's tracer read it.
    * ``periodic``: paths with minimal f_#-period in 2..period_bound.
    * ``budgets_hit``: one note per search ray cut at its iterate cap, those
      of f first, then of f^2, f^3, ...; empty when no cap shaped the
      search.
    * ``inps_by_first``: the generic iNps in both orientations, grouped by
      first edge, longest first (with their heights), for complete
      splitting, which matches family members from their records instead.
      Built on first read.

    The period-one search runs when the catalog is built.  The f^k searches
    behind ``periodic`` and the f^k notes of ``budgets_hit`` run once, on
    the first read of either, and their result is kept.

    Completeness is certified only within ``bound`` (and ``period_bound``
    for the periodic list); consumers must treat absence as
    "not found within bound".
    """

    def __init__(self, m, bound, period_bound, entries, notes, families=None):
        g = m.graph
        self.map = m
        self.bound = bound
        self.period_bound = period_bound
        self.fixed_edges = [
            e for e in g.edge_names if m.edge_images[e].edges == (e,)
        ]
        self.generic = entries
        self.families = families or {}
        self._fixed_notes = tuple(notes)
        self._periodic = None
        self._image_qe = {}

    @cached_property
    def listing(self):
        if not self.families:
            return self.generic
        inverse_of = self.map.graph.inverse_of
        members = [
            (e, b, i, split)
            for e, (b, records, _) in self.families.items()
            for i, split in records
        ]

        def edges_of(x):
            if isinstance(x, NielsenEntry):
                return x.path.edges
            e, b, i, _ = x
            return (e,) + b * i + (inverse_of[e],)

        def length_of(x):
            return len(x.path) if isinstance(x, NielsenEntry) else 2 + len(x[1]) * x[2]

        return _in_order(self.map.graph.order_key, self.generic + members, edges_of, length_of)

    @cached_property
    def entries(self):
        if not self.families:
            return self.generic
        g = self.map.graph
        paths = {
            e: dict(zip((i for i, _ in records), _family_members(g, e, b, records)))
            for e, (b, records, _) in self.families.items()
        }
        return [
            x if isinstance(x, NielsenEntry)
            else NielsenEntry(paths[x[0]][x[2]], 1, not x[3], self.families[x[0]][2], x[0])
            for x in self.listing
        ]

    @cached_property
    def inps_by_first(self):
        out = {}
        for entry in self.generic:
            if entry.indivisible:
                for sigma in (entry.path, entry.path.reverse()):
                    out.setdefault(sigma.edges[0], []).append((sigma, entry.height))
        for lst in out.values():
            lst.sort(key=lambda sh: -len(sh[0]))
        return out

    def _periodic_part(self):
        if self._periodic is None:
            self._periodic = _search_periodic(self)
        return self._periodic

    @property
    def periodic(self):
        return self._periodic_part()[0]

    @property
    def budgets_hit(self):
        return self._periodic_part()[1]

    def inps(self, height=None):
        out = [x for x in self.entries if x.indivisible]
        if height is not None:
            out = [x for x in out if x.height == height]
        return out

    def image_qe_split(self, piece):
        """qe_split of f_#(piece) under this catalog and its map f, computed
        once per edge tuple and shared by every later caller.

        ``piece`` is a path of f's graph; it may be a piece of f|S, f
        restricted to an invariant edge set S and disintegrated on f's
        graph.  Lemma: f|S(A) = f(A) splits under f|S as under f.  The
        terms are read from S's edges; the QE families met are f's with
        ends in S; the illegal turns in S are those of Df; an iNp term of
        f(E) is no longer than f(E), so within f|S's bound 4 max|f(E)| + 8.
        Zero strata are the exception: two of f that meet in S are one
        stratum of f|S, and where f|S runs one connecting term over both, f
        ends a term at their border and checks the turn there.
        Disintegration reads a connecting term only by its first edge's
        f|S-stratum, so the classes agree, but an illegal border turn makes
        f refuse what f|S splits.  And f(A) for a connecting path A may
        outgrow f|S's bound, where f's catalog, searched further, decides.
        Term heights are f's levels.
        """
        key = piece.edges
        if key not in self._image_qe:
            m = self.map
            self._image_qe[key] = qe_split(m, m.apply(piece), self)
        return self._image_qe[key]

    def __repr__(self):
        periodic = (
            "periodic not searched"
            if self._periodic is None
            else "%d periodic" % len(self.periodic)
        )
        n_entries = len(self.generic) + sum(len(f[1]) for f in self.families.values())
        return "<NielsenCatalog %d fixed edges, %d entries, %s, bound %d>" % (
            len(self.fixed_edges),
            n_entries,
            periodic,
            self.bound,
        )


def _in_order(order_key, items, edges_of, length_of=None):
    """``items`` sorted by the (length, order key list) of their edge
    tuples; key lists, and the edge tuples when ``length_of`` gives the
    lengths, are built only for items of equal length."""
    length_of = length_of or (lambda x: len(edges_of(x)))
    by_len = {}
    for x in items:
        by_len.setdefault(length_of(x), []).append(x)
    out = []
    for n in sorted(by_len):
        tied = by_len[n]
        if len(tied) > 1:
            tied.sort(key=lambda x: list(map(order_key.__getitem__, edges_of(x))))
        out.extend(tied)
    return out


def _linear_axes(filt):
    """{E: w} over the linear strata, E the oriented edge with f(E) = E.w^d
    (d >= 1) and w the axis edge tuple."""
    return {s.neg_edge: s.axis.edges for s in filt if s.linear}


def _search_fixed_paths(m, bound, known=frozenset(), linear=None):
    """Nielsen paths of length 2..bound via the stable prefix pairing.

    Prefixes are grouped by (end vertex, suffix key) and, within a group,
    bucketed by last edge: sigma = p . reverse(q) is tight only for p, q
    from different buckets.  The pair (q, p) gives only
    reverse(p . reverse(q)), so each unordered pair of buckets is paired
    once.  Equal keys do not make equal suffixes, so p and q pair only if
    f_#(p) minus p equals f_#(q) minus q (each computed once, on its first
    such pair).  Candidates whose edge tuple is in ``known`` are skipped
    unchecked.

    A pair is Nielsen iff its suffixes are equal (module docstring), so a
    new candidate is kept unchecked.
    A candidate is kept in its orientation with the smaller order key, and
    a ``Path`` is built only for a candidate not seen before.  A run of
    prefixes (see :func:`_stable_prefixes`) sits in its bucket as one item
    and is written out, prefix by prefix, only against an item of another
    bucket in its group.

    ``linear`` maps linear edges E of m to their axis edge tuples w (see
    :func:`_linear_axes`; on f^k, f's linear edges are linear with exponent
    k.d); their rays are developed in closed form (see
    :func:`_stable_prefixes`).  The prefixes of E's ray of length 1 + i|w|
    are E w^i when w is cyclically reduced, each with growth suffix w^d,
    and the pair of E w^i with the bare prefix E is the family member E
    w^i Ebar.  Such pairs, read off the bare E and a run of E w^i at once,
    are only described, as (p_n, p_step, q_n, q_step, composite flag)
    under E, the two runs of prefixes as the loop reads them: nothing is
    built, checked or enumerated for them.  :func:`build_catalog` expands
    the descriptors into member records (:func:`_family_records`); the f^k
    searches of :func:`_search_periodic` drop them.  Every other pair,
    exceptional pairs E1 w^j E2bar included, goes through the loop as
    above.

    Returns (sigmas, composite, families, capped): the other pairs as
    paths in (length, order key) order, their composite flags by edge
    tuple (p or q has a Nielsen prefix), the family descriptors
    {E: [(p_n, p_step, q_n, q_step, flag), ...]} and the rays cut at
    their iterate cap.
    """
    g = m.graph
    order_key, inverse_of = g.order_key, g.inverse_of
    linear = linear or {}
    groups = {}
    prefixes, capped = _stable_prefixes(m, bound, linear=linear)
    for ray, n, step, end, s, split, d in prefixes:
        groups.setdefault((end, s), {}).setdefault(ray[n - 1], []).append((ray, n, step, split, d))
    suffix = cache(lambda p: _growth_suffix(m, p))
    found = {}
    composite = {}
    families = {}
    for buckets in groups.values():
        lasts = sorted(buckets, key=order_key.__getitem__)
        for a, b in combinations(lasts, 2):
            for (p_ray, p_n, p_step, p_split, d), (q_ray, q_n, q_step, q_split, e) in product(
                buckets[a], buckets[b]
            ):
                split = p_split or q_split
                if p_n + q_n > bound:
                    continue
                lw = len(linear[d]) if d == e and d in linear else 0
                if lw and (p_n - 1) % lw == (q_n - 1) % lw == 0:
                    # prefixes E w^i, E w^j of E's ray in different buckets
                    # (runs step by |w|): one is E itself, the other E w^k
                    families.setdefault(d, []).append((p_n, p_step, q_n, q_step, split))
                    continue
                for i, j in _pair_lengths(p_n, p_step, q_n, q_step, bound):
                    p, q = p_ray[:i], q_ray[:j]
                    if suffix(p) != suffix(q):
                        continue
                    edges = p + _reverse(inverse_of, q)
                    if edges in known:
                        continue
                    edges = _lesser_orientation(order_key, edges, q + _reverse(inverse_of, p))
                    if edges in found:
                        continue
                    found[edges] = Path(g, edges)
                    composite[edges] = split
    sigmas = _in_order(order_key, found.values(), lambda s: s.edges)
    return sigmas, composite, families, capped


def _reverse(inverse_of, edges):
    return tuple(map(inverse_of.__getitem__, reversed(edges)))


def _pair_lengths(p_n, p_step, q_n, q_step, bound):
    """The (|p|, |q|) of the pairs of two runs of prefixes, p_n, p_n +
    p_step, ... against q_n, q_n + q_step, ... (one prefix when the step
    is 0), with |p| + |q| <= bound."""
    for i in range(p_n, bound + 1 - q_n, p_step or bound):
        for j in range(q_n, bound + 1 - i, q_step or bound):
            yield i, j


def _family_records(descriptors, lw, bound):
    """The (i, composite flag) records of the members E w^i Ebar that a
    linear edge's family descriptors (see :func:`_search_fixed_paths`)
    give, |w| = lw, in the order the pairing loop meets them."""
    return [
        ((i + j - 2) // lw, split)
        for p_n, p_step, q_n, q_step, split in descriptors
        for i, j in _pair_lengths(p_n, p_step, q_n, q_step, bound)
    ]


def _checked_family(m, filt, e, w, records):
    """E's linear family (b, records, height) from the recorded (i,
    composite flag) pairs, or None when its members are not Nielsen; b is w
    or reverse(w), the orientation the search keeps.

    Each member's reverse is E reverse(b)^i Ebar; the two first differ where
    b and reverse(b) do, so one comparison orients every member.  One
    member decides them all: with f(E) = E.u, f_#(E w^i Ebar) = E w^i Ebar
    iff (u.f(w).ubar)^i = w^i in the fundamental group, iff u.f(w).ubar = w
    (roots are unique in a free group), whatever i is.  So the shortest
    member gets the exact ``is_nielsen_path`` check and stands for the
    family.  Every member has E's level as its height: w lies below E.
    """
    g = m.graph
    inverse_of = g.inverse_of
    body = _lesser_orientation(g.order_key, w, _reverse(inverse_of, w))
    records = sorted(records)
    shortest = (e,) + body * records[0][0] + (inverse_of[e],)
    if not is_nielsen_path(m, Path(g, shortest)):
        return None
    return body, records, filt.level(e)


def _family_members(g, e, b, records):
    """The path of each member E b^i Ebar of a family, one per record."""
    tail = (g.inverse_of[e],)
    ray = (e,) + b * records[-1][0]
    return [Path(g, ray[: 1 + len(b) * i] + tail) for i, _ in records]


def _fold_listed_members(families, generic, linear, g, filt):
    """The generic entries that are not members E b^i Ebar of a linear
    family.  A member among them (on some map another pair might give one
    too, and when w is not cyclically reduced the family's own pairs give
    none) is listed once, as its family's record, with the family made
    for it if needed: b is the orientation of w that the entry reads."""
    kept = []
    for x in generic:
        edges, e = x.path.edges, x.path.edges[0]
        if e in linear and edges[-1] == g.inverse_of[e]:
            b = _lesser_orientation(g.order_key, linear[e], _reverse(g.inverse_of, linear[e]))
            i, rest = divmod(len(edges) - 2, len(b))
            if not rest and edges[1:-1] == b * i:
                _, records, height = families.get(e, (b, [], filt.level(e)))
                if all(r[0] != i for r in records):
                    records = sorted(records + [(i, not x.indivisible)])
                families[e] = (b, records, height)
                continue
        kept.append(x)
    return kept


def build_catalog(m, bound=None, period_bound=3):
    """Search for Nielsen and periodic Nielsen paths up to a length bound.

    The default bound is four times the longest edge image plus slack.
    Only the period-one search runs here; the periodic list (the same
    search on f^k, k = 2..period_bound) runs on the first read of the
    catalog's ``periodic`` or ``budgets_hit``.  Results are cached on the
    map per (bound, period_bound).

    The search recognises each linear edge's family E w^k Ebar once, as
    descriptors of pairs of prefix runs; this is the one place they are
    expanded into records (:func:`_family_records`), and the catalog keeps
    the family after one exact check (see :func:`_checked_family`).  The
    catalog's ``listing`` keeps its members as records; its ``entries``
    write them out and are the same as member by member.
    """
    if bound is None:
        bound = default_length_bound(m)
    key = ("catalog", bound, period_bound)
    if key in m._cache:
        return m._cache[key]
    filt = filtration(m)
    linear = _linear_axes(filt)
    sigmas, composite, descriptors, capped = _search_fixed_paths(m, bound, linear=linear)
    budgets_hit = [_cap_note(1, d, cap) for d, cap in capped]
    generic = [
        NielsenEntry(sigma, 1, not composite[sigma.edges], filt.height(sigma))
        for sigma in sigmas
    ]
    families = {}
    for e, descs in descriptors.items():
        recs = _family_records(descs, len(linear[e]), bound)
        fam = _checked_family(m, filt, e, linear[e], recs)
        if fam is not None:
            families[e] = fam
    generic = _fold_listed_members(families, generic, linear, m.graph, filt)
    cat = NielsenCatalog(m, bound, period_bound, generic, budgets_hit, families)
    m._cache[key] = cat
    return cat


def _search_periodic(cat):
    """The periodic entries of a catalog and all its budget notes: those
    of the period-one search, then those of the f^k searches.

    The search for fixed paths runs on f^k, k = 2..period_bound, among
    paths not already fixed: the period-one paths of the catalog, in both
    orientations, are skipped there, since f^k fixes them with period one.
    The members of linear families are fixed by f too (f(E) = E.w^d with
    w Nielsen), so the f^k searches drop their family descriptors
    unexpanded and ``known`` holds only the generic entries.  Every other
    candidate (a member another pair gives too) gets the f^k_# check and
    period probe.
    """
    m, bound = cat.map, cat.bound
    filt = filtration(m)
    linear = _linear_axes(filt)
    known = frozenset(
        edges
        for entry in cat.generic
        for edges in (entry.path.edges, entry.path.reverse().edges)
    )
    periodic = []
    notes = list(cat._fixed_notes)
    mk = m
    for k in range(2, cat.period_bound + 1):
        mk = compose(m, mk)
        sigmas_k, _, _, capped = _search_fixed_paths(mk, bound, known, linear)
        notes.extend(_cap_note(k, d, cap) for d, cap in capped)
        for sigma in sigmas_k:
            period = None
            probe = sigma
            for j in range(1, k + 1):
                probe = m.apply(probe)
                if probe == sigma:
                    period = j
                    break
            if period == k:
                periodic.append(NielsenEntry(sigma, k, None, filt.height(sigma)))
    return periodic, tuple(notes)


def _cap_note(k, direction, cap):
    power = "f" if k == 1 else "f^%d" % k
    return "stable-prefix ray of %s from direction %s cut at its iterate cap %d" % (
        power, direction, cap,
    )


# -- linear edges and axes ------------------------------------------------------


class Axis:
    """An unoriented axis circuit with the linear edges twisting over it.

    ``word`` is the based axis path in the orientation used by the least
    linear edge; each member edge carries its exponent measured in that
    orientation.  ``multiplicity`` counts the members plus one (the axis
    itself), the number of independent comparison coordinates the axis
    supports.
    """

    def __init__(self, word, members):
        self.word = word
        self.members = members  # list of (oriented edge, signed exponent)
        self.multiplicity = len(members) + 1

    def __repr__(self):
        ms = ", ".join("%s^%d" % (e, d) for e, d in self.members)
        return "<axis %r [%s]>" % (self.word, ms)


def axes(m):
    """Group linear edges by unoriented axis and enforce the linear clauses.

    The linear edges are the linear strata of m's filtration, each read as
    its ``neg_edge`` E, ``axis`` w and ``exponent`` d with f(E) = E.w^d.
    Raises LViolation when two linear edges on one unoriented axis have
    based words that differ by more than orientation, or equal exponents.
    """
    g = m.graph
    linear = sorted((s for s in filtration(m) if s.linear),
                    key=lambda s: g.edge_index(s.neg_edge))
    groups = {}
    for s in linear:
        c = Circuit.from_path(s.axis)
        cr = c.reverse()
        key = min(c.edges, cr.edges, key=lambda es: _path_key(g, Path(g, es)))
        groups.setdefault(key, []).append(s)
    out = []
    for key in sorted(groups, key=lambda es: _path_key(g, Path(g, es))):
        strata = groups[key]
        word = strata[0].axis
        members = []
        for s in strata:
            if s.axis == word:
                members.append((s.neg_edge, s.exponent))
            elif s.axis == word.reverse():
                members.append((s.neg_edge, -s.exponent))
            else:
                raise LViolation(
                    "linear edges %s and %s share the axis circuit but their "
                    "twisting words differ by more than orientation"
                    % (strata[0].neg_edge, s.neg_edge)
                )
        exps = [d for _, d in members]
        if len(set(exps)) != len(exps):
            raise LViolation(
                "axis %r carries two linear edges with equal exponents" % word
            )
        out.append(Axis(word, members))
    return out


class QEFamily:
    """Paths e_i . w^p . inverse(e_j), p ranging over the integers.

    e_i, e_j are distinct linear edges over the common based axis word w
    (e_i the one with the smaller construction index).  The family is
    exceptional when the exponents have the same sign; only then are its
    members complete-splitting terms.
    """

    def __init__(self, axis, e_i, d_i, e_j, d_j):
        self.axis = axis
        self.e_i, self.d_i = e_i, d_i
        self.e_j, self.d_j = e_j, d_j

    @property
    def word(self):
        return self.axis.word

    def key(self):
        return (self.e_i, self.e_j, self.word.edges)

    def is_exceptional(self):
        return self.d_i * self.d_j > 0

    def ends(self):
        return {self.e_i, self.e_j}

    def other(self, e):
        return self.e_j if e == self.e_i else self.e_i

    def member_path(self, p, start=None):
        """The member e_i w^p inverse(e_j), or from the other end if start=e_j."""
        start = start or self.e_i
        g = self.word.graph
        first, last = (self.e_i, self.e_j) if start == self.e_i else (self.e_j, self.e_i)
        if start == self.e_j:
            p = -p
        mid = self.word.power(p)
        return Path(g, (first,) + mid.edges + (inverse(last),))

    def matches(self, path):
        """Signed power p when ``path`` is a member (measured from e_i), else None."""
        if len(path) < 2:
            return None
        first, last = path.edges[0], inverse(path.edges[-1])
        if {first, last} != self.ends() or first == last:
            return None
        mid = path.subpath(1, len(path) - 1)
        w = self.word
        if len(mid) % len(w) != 0:
            return None
        k = len(mid) // len(w)
        for p in (k, -k):
            if mid.edges == w.power(p).edges:
                return p if first == self.e_i else -p
        return None

    def __repr__(self):
        kind = "exceptional" if self.is_exceptional() else "quasi-exceptional"
        return "<%s family %s w^* %s' over %r>" % (kind, self.e_i, self.e_j, self.word)


def qe_families(m):
    """All quasi-exceptional families, deterministically ordered.

    Depends on the map alone: computed once and cached on it.
    """
    if "qe_families" in m._cache:
        return m._cache["qe_families"]
    g = m.graph
    out = []
    for ax in axes(m):
        for i in range(len(ax.members)):
            for j in range(i + 1, len(ax.members)):
                (ei, di), (ej, dj) = ax.members[i], ax.members[j]
                if g.edge_index(ei) > g.edge_index(ej):
                    (ei, di), (ej, dj) = (ej, dj), (ei, di)
                out.append(QEFamily(ax, ei, di, ej, dj))
    out = tuple(out)
    m._cache["qe_families"] = out
    return out


def _families_by_end(m):
    """({E: the QE families with end E}, {E: the exceptional ones}), each
    list in :func:`qe_families` order, cached on the map beside them."""
    if "families_by_end" not in m._cache:
        every, exceptional = {}, {}
        for fam in qe_families(m):
            for e in (fam.e_i, fam.e_j):
                every.setdefault(e, []).append(fam)
                if fam.is_exceptional():
                    exceptional.setdefault(e, []).append(fam)
        m._cache["families_by_end"] = every, exceptional
    return m._cache["families_by_end"]


def is_exceptional_path(m, path):
    """Does the path belong to an exceptional (same-sign) family?"""
    for fam in qe_families(m):
        if fam.is_exceptional() and fam.matches(path) is not None:
            return fam
    return None


# -- complete splittings ---------------------------------------------------------


class Term:
    def __init__(self, kind, path, family=None, power=None, height=None):
        self.kind = kind
        self.path = path
        self.family = family
        self.power = power
        self.height = height

    def __repr__(self):
        return "<%s %r>" % (self.kind, self.path)


class CompleteSplitting:
    def __init__(self, path, terms, certificate):
        self.path = path
        self.terms = terms
        self.certificate = certificate

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "<splitting %s>" % " | ".join(
            " ".join(t.path.edges) for t in self.terms
        )


def _juncture_ok(m, left, right, k_max):
    """No cancellation between iterated images at the juncture.

    Returns "legal" when the juncture turn is legal (exact, sufficient for
    all k), "depth" when only the explicit iterate check up to k_max
    passes, None on failure.
    """
    inverse_of = m.graph.inverse_of
    d1 = inverse_of[left.path.edges[-1]]
    d2 = right.path.edges[0]
    if d1 != d2 and frozenset((d1, d2)) not in illegal_turns(m):
        return "legal"
    a, b = left.path, right.path
    for _ in range(k_max):
        a, b = m.apply(a), m.apply(b)
        if a.is_trivial() or b.is_trivial():
            return None
        if a.edges[-1] == inverse_of[b.edges[0]]:
            return None
    return "depth"


def _candidates(m, path, i, filt, exceptional, inps_by_first, families):
    """Candidate terms starting at offset i, in search priority order:
    longest first, an exceptional path before an iNp of the same length,
    a single edge last.

    Exceptional families come from :func:`_families_by_end`, generic
    iNps from ``inps_by_first``.  Where the edge at i is a family's E, its
    members are matched from the records, none built as a path: the repeats
    of b, and of reverse(b) (a member read backwards), are counted once,
    and each indivisible record k whose Ebar follows the k-th repeat gives
    a candidate.
    """
    e = path.edges[i]
    lvl = filt.level(e)
    if filt[lvl].kind == "zero":
        j = i
        while j < len(path) and filt.level(path.edges[j]) == lvl:
            j += 1
        return [Term(TERM_CONN, path.subpath(i, j), height=lvl)]
    cands = []
    # exceptional paths from a same-sign family, longest first
    for fam in exceptional.get(e, ()):
        other_inv = inverse(fam.other(e))
        ends = set()
        for wdir in (fam.word, fam.word.reverse()):
            step = len(wdir)
            pos = i + 1
            while True:
                if pos < len(path) and path.edges[pos] == other_inv:
                    ends.add(pos + 1)
                if path.edges[pos : pos + step] == wdir.edges:
                    pos += step
                else:
                    break
        for end in ends:
            cands.append((end, Term(TERM_EXC, path.subpath(i, end), family=fam)))
    # indivisible Nielsen paths from the catalog, longest first
    for sigma, height in inps_by_first.get(e, []):
        n = len(sigma)
        if path.edges[i : i + n] == sigma.edges:
            cands.append((i + n, Term(TERM_INP, path.subpath(i, i + n), height=height)))
    # members of E's linear family, read off the records
    if e in families:
        b, records, height = families[e]
        edges, inverse_of = path.edges, m.graph.inverse_of
        tail, n = inverse_of[e], len(b)
        for body in (b, _reverse(inverse_of, b)):
            pos, reps = i + 1, 0
            for k, split in records:
                while reps < k and edges[pos : pos + n] == body:
                    pos, reps = pos + n, reps + 1
                if reps < k:
                    break
                if not split and pos < len(edges) and edges[pos] == tail:
                    term = Term(TERM_INP, path.subpath(i, pos + 1), height=height)
                    cands.append((pos + 1, term))
    # a single edge of an irreducible stratum
    single = Term(TERM_EDGE, path.subpath(i, i + 1), height=lvl)
    cands.sort(key=lambda et: (-et[0], et[1].kind != TERM_EXC))
    return [t for _, t in cands] + [single]


def complete_split(m, path, catalog=None, k_max=4, node_cap=100000):
    """Parse a path into complete-splitting terms, verified as it goes.

    Terms are single edges of irreducible strata, indivisible Nielsen paths
    (catalog), exceptional paths, and maximal connecting subpaths in zero
    strata.  Candidates are tried longest first with backtracking; a
    candidate may follow the previous term only when the juncture shows no
    cancellation under iteration (exact turn legality, or the explicit
    check to depth k_max).  Raises NotCompletelySplit with the furthest
    failing offset when no parse survives.
    """
    if catalog is None:
        catalog = build_catalog(m)
    filt = filtration(m)
    if path.is_trivial():
        return CompleteSplitting(path, [], "trivial")
    exceptional = _families_by_end(m)[1]
    inps_by_first, families = catalog.inps_by_first, catalog.families

    # Depth-first search with an explicit stack, so the depth is not
    # limited by the number of terms.  ``terms`` is the parse so far and
    # ``frames`` holds one entry per open node: its offset, the candidates
    # not yet tried there and the worst juncture certificate on its way.
    terms = []
    frames = []
    best_fail = 0
    nodes = 0
    i, worst = 0, "legal"
    while True:
        nodes += 1
        if nodes > node_cap:
            raise NotCompletelySplit(
                "splitting search budget exhausted", position=best_fail
            )
        if i == len(path):
            break
        best_fail = max(best_fail, i)
        cands = _candidates(m, path, i, filt, exceptional, inps_by_first, families)
        frames.append((i, iter(cands), worst))
        while frames:
            i, todo, worst = frames[-1]
            for term in todo:
                cert = _juncture_ok(m, terms[-1], term, k_max) if terms else "legal"
                if cert is not None:
                    break
            else:
                frames.pop()
                if terms:
                    terms.pop()
                continue
            terms.append(term)
            i += len(term.path)
            if cert == "depth":
                worst = cert
            break
        else:
            raise NotCompletelySplit(
                "path %r is not completely split" % path, position=best_fail
            )
    certificate = (
        "legal-turns" if worst == "legal" else "verified-to-depth-%d" % k_max
    )
    return CompleteSplitting(path, terms, certificate)


def verify_splitting(m, path, terms, k_max=4):
    """Check a proposed splitting: terms concatenate to the path and no
    juncture cancels under iteration.  Returns (ok, certificate)."""
    flat = []
    for t in terms:
        flat.extend(t.path.edges)
    if tuple(flat) != path.edges:
        return False, "terms do not concatenate to the path"
    worst = "legal"
    for left, right in zip(terms, terms[1:]):
        cert = _juncture_ok(m, left, right, k_max)
        if cert is None:
            return False, "cancellation at a juncture"
        if cert == "depth":
            worst = "depth"
    # belt and braces: the iterated image must split along the same points
    probe = path
    probes = list(terms)
    for _ in range(min(2, k_max)):
        probe = m.apply(probe)
        probes = [Term(t.kind, m.apply(t.path)) for t in probes]
        flat = []
        for t in probes:
            flat.extend(t.path.edges)
        if tuple(flat) != probe.edges:
            return False, "iterate does not respect the splitting"
    return True, ("legal-turns" if worst == "legal" else "verified-to-depth-%d" % k_max)


class QESplitting(CompleteSplitting):
    """Complete splitting coarsened by merging maximal quasi-exceptional runs."""

    def qe_terms(self):
        return [t for t in self.terms if t.kind == TERM_QE]

    def __repr__(self):
        return "<qe-splitting %s>" % " | ".join(
            "%s:%s" % (t.kind, " ".join(t.path.edges)) for t in self.terms
        )


def _is_nielsen_term(m, t):
    if t.kind == TERM_INP:
        return True
    if t.kind == TERM_EDGE:
        e = t.path.edges[0]
        return m.image_of[e] == (e,)
    return False


def qe_split(m, path, catalog=None, splitting=None):
    """QE-splitting: complete splitting with runs [e_i][Nielsen...][e_j']
    matching a family merged into one quasi-exceptional term (and
    exceptional single terms relabelled).  QE terms never overlap; the scan
    is left to right."""
    if splitting is None:
        splitting = complete_split(m, path, catalog)
    by_end = _families_by_end(m)[0]
    terms = list(splitting.terms)
    out = []
    i = 0
    while i < len(terms):
        t = terms[i]
        if t.kind == TERM_EXC:
            p = t.family.matches(t.path)
            out.append(Term(TERM_QE, t.path, family=t.family, power=p))
            i += 1
            continue
        merged = False
        if t.kind == TERM_EDGE and t.path.edges[0] in by_end:
            e = t.path.edges[0]
            j = i + 1
            while j < len(terms) and _is_nielsen_term(m, terms[j]):
                j += 1
            if j < len(terms) and terms[j].kind == TERM_EDGE:
                closer = terms[j].path.edges[0]
                for fam in by_end[e]:
                    if closer != inverse(fam.other(e)):
                        continue
                    lo = sum(len(x.path) for x in terms[:i])
                    hi = lo + sum(len(x.path) for x in terms[i : j + 1])
                    cand = path.subpath(lo, hi)
                    p = fam.matches(cand)
                    if p is not None:
                        out.append(Term(TERM_QE, cand, family=fam, power=p))
                        i = j + 1
                        merged = True
                        break
        if not merged:
            out.append(t)
            i += 1
    return QESplitting(path, out, splitting.certificate)
