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
paths as one family per E, checks one member exactly and keeps the family
as (b, height, composite flag), b the body w or reverse(w): one member
decides every k >= 1, and so does one composite flag
(:func:`_checked_family`), so no member is recorded.  Complete splitting
matches E b^k Ebar for every k, the CT check counts families and the
``nielsen`` report writes one line and one JSON object per family, "for
every k >= 1"; the members within the bound are written out as paths
only on the first read of ``entries``, by the tests or perfbench's
tracer.

Periodic Nielsen paths (f^k_#(sigma) = sigma, minimal k in 2..period_bound)
are found by the same search run on f^k, among the paths that are not
already fixed: a candidate that is a period-one Nielsen path of the catalog
is dropped before any f^k_# work, and a family pair of a linear edge is
dropped as a descriptor.  Where every direction that D(f^k) fixes is a
fixed edge or a linear edge over the fixed edges, as on the ladder B -> B
A^k and the type E and C families, f^k fixes only what f fixes, and the
search on f^k is skipped by that lemma (:func:`_search_periodic`).  Only
the CT check and the ``nielsen`` report read the periodic list, so that
search runs the first time a catalog's ``periodic`` list or its
``budgets_hit`` notes are read, not when the catalog is built.

The period-one search is deferred the same way: it runs the first time
the catalog's entries, families or notes are read.  The CT check, the
``nielsen`` report and the splitter's general search read them; the
disintegration reads only the splittings of edge images, and an image
E.x_1...x_m with every x_i a fixed edge splits in closed form without
them (:func:`complete_split`).  So on the ladder and on the type E and
C families, ``disintegrate``, ``audit`` and ``classify`` run no search.

Linear strata are described once per map, by its linear index
(:func:`_linear_index`): per axis its word, the reverse and each member
edge's signed exponent, and per linear edge its axis, its own w and d.
Clause L is a check over it (:func:`axes`), and the searches, the
splitter and the term DAG read it.  A quasi-exceptional family E_i w^p
E_j' is fixed by its axis and its two linear edges, and is built only
when a splitting meets that pair (:func:`_qe_family`).

The restriction f|S of f to an invariant edge set S (a filtration prefix)
has as Nielsen paths exactly those of f that lie in S, since f_# of a path
there is computed there, and its edge images split as under f
(:meth:`NielsenCatalog.image_qe_split`): f's catalog serves the prefix
without a search of its own, and the prefix is disintegrated on f's own
graph, through its filtration (:func:`maps.restrict`), not as a map of its
own.
"""

from collections import namedtuple
from functools import cache, cached_property
from itertools import chain, combinations, islice, product

from .paths import Path, base_name, cyclic_decompose, inverse
from .maps import filtration, direction_map, is_illegal_turn, compose
from .errors import FaRefused, LViolation, MalformedPath, NotCompletelySplit

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


def _lesser_orientation(order_key, fwd, bwd):
    """Of an edge tuple and its reverse, the one with the smaller order key
    list (``fwd`` on a tie), compared up to the first edge where they
    differ."""
    for x, y in zip(fwd, bwd):
        if x != y:
            return fwd if order_key[x] < order_key[y] else bwd
    return fwd


def _stable_prefixes(m, bound, iter_cap=None, linear=None, rays=None):
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

    With ``rays`` = (the catalog of f, k), m being f^k, the j-th iterate
    of a direction d's ray is f^(kj)_#(d), a node of the catalog's
    :class:`TermIterates`.  Where the DAG covers d's edge, each iterate is
    read off it as its exact length and its first bound + 3 edges (bound
    edges for the last), which is all the loop below compares and sweeps,
    and no f_# is taken; a fixed edge's ray, which stops at once, and the
    rays the DAG refuses are iterated by f_# as above.

    Whether a prefix is stable, its suffix and its split flag depend on the
    prefix alone, so a sequence's first edges that an earlier swept
    sequence shares were recorded with it and are not recorded again.  Only
    the earlier sequences with the same first edge are compared: the others
    share no prefix with it.

    ``linear`` is f's linear index, ``_linear_index(f).edges``: each linear
    edge E with its axis w, f(E) = E.v, v = [w^D] (on f^k, D is k times f's
    exponent).  As f_#(w) = w, the j-th iterate of E's ray is E.[w^(jD)]:
    no f is applied and no cap cuts it.  When w is cyclically reduced the
    iterates nest into E w w w ..., and

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
    swept = {}  # first edge -> the sequences swept from it
    capped = []

    def sweep(edge_seq, d, stop=bound, period=0):
        # img carries the reduced f-image of the growing prefix; ``agree``
        # is the verified common-prefix length, rewound when cancellation
        # pops below it, so the whole sweep is linear in the work f does.
        edge_seq = edge_seq[:bound]
        earlier = swept.setdefault(edge_seq[:1], [])
        done = max((_common_prefix_length(prev, edge_seq) for prev in earlier), default=0)
        stop = max(stop, done + period)  # runs start past the shared prefix
        earlier.append(edge_seq)
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
        w = d in linear and linear[d].w
        if w and w[0] != inverse_of[w[-1]]:
            v = image_of[d][1:]
            lw = len(w)
            bulk = max(lw, sum(len(image_of[e]) for e in w[:-1]))  # L of the lemma
            i0 = max(0, -(-bulk // lw) - len(v) // lw)
            sweep((d,) + w * (bound // lw + 1), d, 1 + (i0 + 2) * lw, lw)
            continue
        ray = g.path([d])
        size = 1  # |ray|; on the DAG route ray holds only its head
        dag = None
        if rays is not None and image_of[d] != (d,) and rays[0].iterates.refusal((d,)) is None:
            dag, k = rays[0].iterates, rays[1]
        seen = {}  # earlier iterates by length: compared, never hashed
        pending = ray
        for j in range(1, iter_cap + 1):
            last = size > bound + 2  # the last f_#: sweeps read ``bound`` edges
            if last:
                pending = Path(g, pending.edges[:bound])
            if dag:
                size = dag.length((d,), k * j)
                nxt = Path(g, dag.head((d,), k * j, bound if last else bound + 3))
            else:
                nxt = _image_head(m, ray, bound) if last else m.apply(ray)
                size = len(nxt)
            stop = (
                nxt.is_trivial()
                or nxt.edges == ray.edges
                or nxt.edges in seen.get(len(nxt), ())
                or last
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
    * ``families``: the linear families, ``{E: (b, height, composite)}``:
      the members are E b^k Ebar for every k >= 1, b the body in the
      orientation the catalog lists, height E's level and composite the
      one flag every member shares (:func:`_checked_family`).  No member
      is kept as a path.
    * ``generic``: the other period-one entries, each its own path, in
      (length, order key) order.  The ``nielsen`` report reads these and
      ``families``; it places each family where its member k = 1 would
      sort among them.
    * ``entries``: the period-one Nielsen paths p.reverse(q) of length 2..
      ``bound`` paired from stable prefixes (not every Nielsen path within
      the bound; see the module docstring), in (length, order key) order,
      as ``NielsenEntry`` objects, each flagged indivisible or composite,
      exactly, with its filtration height: the generic entries and the
      family members within the bound, written out in closed form on the
      first read and marked with ``family``.  Only the tests and
      perfbench's tracer read it.
    * ``periodic``: paths with minimal f_#-period in 2..period_bound.
    * ``budgets_hit``: one note per search ray cut at its iterate cap, those
      of f first, then of f^2, f^3, ...; empty when no cap shaped the
      search.
    * ``inps_by_first``: the generic iNps in both orientations, grouped by
      first edge, longest first (with their heights), for complete
      splitting, which matches family members by counting repeats of the
      body instead.  Built on first read.
    * :meth:`edge_digest`: what disintegration reads of an edge image's
      QE-splitting, kept per edge.

    The period-one search runs once, on the first read of ``generic``,
    ``families``, ``inps_by_first``, ``entries`` or ``budgets_hit``, not
    when the catalog is built; a catalog given its entries (and notes and
    families) holds them instead.  The f^k searches behind ``periodic``
    and the f^k notes of ``budgets_hit`` run once, on the first read of
    either, after the period-one search.  Every result is kept.

    Completeness is certified only within ``bound`` (and ``period_bound``
    for the periodic list); consumers must treat absence as
    "not found within bound".
    """

    def __init__(self, m, bound, period_bound, entries=None, notes=(), families=None):
        g = m.graph
        self.map = m
        self.bound = bound
        self.period_bound = period_bound
        self.fixed_edges = [
            e for e in g.edge_names if m.edge_images[e].edges == (e,)
        ]
        if entries is not None:
            self._found = entries, families or {}, tuple(notes)
        self._periodic = None
        self._image_qe = {}
        self._digests = {}

    @cached_property
    def _found(self):
        """(generic, families, notes) of the period-one search
        (:func:`_search_period_one`), run on first read."""
        return _search_period_one(self.map, self.bound)

    @property
    def generic(self):
        return self._found[0]

    @property
    def families(self):
        return self._found[1]

    @cached_property
    def entries(self):
        if not self.families:
            return self.generic
        g = self.map.graph
        members = [
            NielsenEntry(path, 1, not composite, height, e)
            for e, (b, height, composite) in self.families.items()
            for path in _family_members(g, e, b, (self.bound - 2) // len(b))
        ]
        return _in_order(g.order_key, self.generic + members, lambda x: x.path.edges)

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

    @cached_property
    def iterates(self):
        """The :class:`TermIterates` of the map, built on first read."""
        return TermIterates(self)

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

    def image_qe_split(self, piece):
        """qe_split of f_#(piece) under this catalog and its map f, computed
        once per edge tuple and shared by every later caller; the image of
        a single edge is its stored one.

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
            image = m.image(key[0]) if len(key) == 1 else m.apply(piece)
            self._image_qe[key] = qe_split(m, image, self)
        return self._image_qe[key]

    def edge_digest(self, e):
        """(firsts, families) of the QE-splitting of f(e), e an edge of f
        outside zero strata, computed once per edge: the first edge of each
        edge or connecting term outside fixed strata, and the family of each
        QE term, each once, in term order.

        Disintegrating f|S reads no more of f(e), for every invariant set S
        that holds e: a term joins e's class to the stratum of its first
        edge unless that stratum is fixed, and each QE family gives one
        relation per class.  A stratum of f|S that is not zero is f's own
        (:func:`maps.restrict`), and f's fixed strata are its edges X with
        f(X) = X, so whether a first edge lies in a fixed stratum does not
        depend on S; each first edge is leveled in S's own filtration by
        the reader.

        A closed-form splitting [E][x_1]...[x_m] of f(e)
        (``CompleteSplitting.closed``) has the digest ((E,), ()): its one
        moving term is its first and it has no QE term, so its terms are
        not walked."""
        if e not in self._digests:
            m = self.map
            split = self.image_qe_split(Path(m.graph, (e,)))
            if split.closed:
                self._digests[e] = (split.path.edges[0],), ()
            else:
                firsts = dict.fromkeys(
                    t.path.edges[0] for t in split.terms
                    if t.kind in (TERM_EDGE, TERM_CONN)
                    and m.image_of[t.path.edges[0]] != t.path.edges[:1]
                )
                families = dict.fromkeys(t.family for t in split.terms if t.kind == TERM_QE)
                self._digests[e] = tuple(firsts), tuple(families)
        return self._digests[e]

    def __repr__(self):
        periodic = (
            "periodic not searched"
            if self._periodic is None
            else "%d periodic" % len(self.periodic)
        )
        entries = (
            "period-one search pending"
            if "_found" not in vars(self)
            else "%d entries and %d families" % (len(self.generic), len(self.families))
        )
        return "<NielsenCatalog %d fixed edges, %s, %s, bound %d>" % (
            len(self.fixed_edges),
            entries,
            periodic,
            self.bound,
        )


def _in_order(order_key, items, edges_of):
    """``items`` sorted by the (length, order key list) of their edge
    tuples; key lists are built only for items of equal length."""
    by_len = {}
    for x in items:
        by_len.setdefault(len(edges_of(x)), []).append(x)
    out = []
    for n in sorted(by_len):
        tied = by_len[n]
        if len(tied) > 1:
            tied.sort(key=lambda x: list(map(order_key.__getitem__, edges_of(x))))
        out.extend(tied)
    return out


def _search_fixed_paths(m, bound, known=frozenset(), linear=None, rays=None):
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

    ``linear`` is m's linear index, ``_linear_index(m).edges`` (on f^k, f's:
    its linear edges are linear with exponent k.d); their rays are
    developed in closed form, and on f^k, with ``rays``, other rays are
    read off f's term DAG (see
    :func:`_stable_prefixes`).  The prefixes of E's ray of length 1 + i|w|
    are E w^i when w is cyclically reduced, each with growth suffix w^d,
    and the pair of E w^i with the bare prefix E is the family member E
    w^i Ebar.  Such pairs, read off the bare E and a run of E w^i at once,
    are only described, as (p_n, p_step, q_n, q_step, composite flag)
    under E, the two runs of prefixes as the loop reads them: nothing is
    built, checked or enumerated for them.  :func:`_search_period_one`
    reduces the descriptors to the family's one flag; the f^k searches of
    :func:`_search_periodic` drop them.  Every other pair, exceptional
    pairs E1 w^j E2bar and the pairs over an axis that is not cyclically
    reduced included, goes through the loop as above.  None of them is a
    member E b^k Ebar over a cyclically reduced axis w: such a pair takes
    p and q from E's ray E w w ...  Were neither the bare E, the pair
    would begin E w[0] and end inverse(w[0]) Ebar, but a member with b = w
    ends w[-1] Ebar and one with b = reverse(w) begins E inverse(w[-1]),
    and w[0] is not inverse(w[-1]).  So one is the bare E and the other E
    w^k: a family pair.

    Returns (sigmas, composite, families, capped): the other pairs as
    paths in (length, order key) order, their composite flags by edge
    tuple (p or q has a Nielsen prefix), the family descriptors
    {E: [(p_n, p_step, q_n, q_step, flag), ...]} and the rays cut at
    their iterate cap.
    """
    g = m.graph
    order_key, inverse_of = g.order_key, g.inverse_of
    linear = linear or {}
    cyclic = {e for e, lin in linear.items() if lin.w[0] != inverse_of[lin.w[-1]]}
    groups = {}
    prefixes, capped = _stable_prefixes(m, bound, linear=linear, rays=rays)
    for ray, n, step, end, s, split, d in prefixes:
        groups.setdefault((end, s), {}).setdefault(ray[n - 1], []).append((ray, n, step, split, d))
    suffix = cache(lambda p: _growth_suffix(m, p))
    found = {}
    composite = {}
    families = {}
    for buckets in groups.values():
        if len(buckets) < 2:
            continue  # a tight pair takes its prefixes from two buckets
        lasts = sorted(buckets, key=order_key.__getitem__)
        for a, b in combinations(lasts, 2):
            for (p_ray, p_n, p_step, p_split, d), (q_ray, q_n, q_step, q_split, e) in product(
                buckets[a], buckets[b]
            ):
                split = p_split or q_split
                if p_n + q_n > bound:
                    continue
                lw = len(linear[d].w) if d == e and d in cyclic else 0
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


def _checked_family(m, filt, lin, composite):
    """The linear family (b, height, composite) of E = ``lin.edge``, f(E) =
    E.w^d with w cyclically reduced, or None when its members are not
    Nielsen; b is w or reverse(w), the orientation the search keeps, and
    ``composite`` the flag the search recorded for its pairs.

    Each member's reverse is E reverse(b)^k Ebar; the two first differ where
    b and reverse(b) do, so one comparison orients every member, and a path
    is composite exactly when its reverse is (sigma = alpha.beta with alpha
    Nielsen makes beta Nielsen), so the orientation does not move the flag.

    *Lemma.*  (a) E w^k Ebar is Nielsen for every k >= 1 exactly when it is
    for k = 1.  (b) Then a proper prefix of E w^k Ebar is Nielsen exactly
    when it reads E w^j x, 0 <= j < k, with x a nonempty proper prefix of w
    and [w^d f_#(x)] = x, a condition free of j and k: every member has the
    same composite flag.  *Proof.*  w and f_#(x) lie below E, so f_# of E y,
    y a path below E, is E [w^d f_#(y)] and nothing cancels against E.  (a)
    f_#(E w^k Ebar) = E w^k Ebar iff (u.f(w).ubar)^k = w^k in the
    fundamental group, u = w^d, iff u.f(w).ubar = w (roots are unique in a
    free group), whatever k is, and then f_#(w) = w.  (b) The proper
    prefixes are E, E w^j x with x a nonempty proper prefix of w, and E
    w^j, 1 <= j <= k.  f_#(E w^j x) = E [w^(d+j) f_#(x)], which is E w^j x
    iff [w^d f_#(x)] = x; with x empty this asks w^d to be trivial, and d
    >= 1.  For k >= 1 the prefixes with j = 0 already meet every x.  []

    So the shortest member, k = 1, gets the exact ``is_nielsen_path`` check
    and stands for the family.  E w^i is stable with suffix w^d for every i
    >= 0, and E's ray E w w ... pairs each such prefix within the bound
    with the bare E, so the search's pairs are the members k = 1..(bound -
    2) // |w|, all under this one flag.  Every member has E's level as its
    height: w lies below E.
    """
    g = m.graph
    body = _lesser_orientation(g.order_key, lin.w, lin.bar)
    shortest = (lin.edge,) + body + (g.inverse_of[lin.edge],)
    if not is_nielsen_path(m, Path(g, shortest)):
        return None
    return body, filt.level(lin.edge), composite


def _family_members(g, e, b, count):
    """The paths of the members E b^k Ebar of a family, k = 1..count."""
    tail = (g.inverse_of[e],)
    ray = (e,) + b * count
    return [Path(g, ray[: 1 + len(b) * k] + tail) for k in range(1, count + 1)]


def build_catalog(m, bound=None, period_bound=3):
    """The catalog of Nielsen and periodic Nielsen paths up to a length
    bound, cached on the map per (bound, period_bound).

    The default bound is four times the longest edge image plus slack.
    The map's filtration is computed here; both searches are deferred.
    The period-one search (:func:`_search_period_one`) runs on the first
    read of the catalog's ``generic``, ``families``, ``inps_by_first`` or
    ``entries`` (or of the notes behind ``budgets_hit``), and the periodic
    list (the same search on f^k, k = 2..period_bound) on the first read
    of ``periodic`` or ``budgets_hit``.  A caller that reads only edge
    images splitting in closed form (:func:`complete_split`) runs neither.
    """
    if bound is None:
        bound = default_length_bound(m)
    key = ("catalog", bound, period_bound)
    if key in m._cache:
        return m._cache[key]
    filtration(m)
    cat = NielsenCatalog(m, bound, period_bound)
    m._cache[key] = cat
    return cat


def _search_period_one(m, bound):
    """(generic, families, notes): the period-one entries that are not
    family members, the linear families and the notes on rays cut at
    their iterate cap.

    The search recognises each linear edge's family E w^k Ebar once, as
    descriptors of pairs of prefix runs, and no generic pair is a member
    (:func:`_search_fixed_paths`).  All of a family's pairs carry one
    composite flag, so the descriptors are reduced to it, and the catalog
    keeps the family after one exact check (:func:`_checked_family`).  The
    catalog's ``families`` and ``generic`` are what the ``nielsen`` report
    reads; its ``entries`` write the members within the bound out and sort
    them into the generic entries' order, the same as member by member.
    """
    filt = filtration(m)
    linear = _linear_index(m).edges
    sigmas, composite, descriptors, capped = _search_fixed_paths(m, bound, linear=linear)
    generic = [
        NielsenEntry(sigma, 1, not composite[sigma.edges], filt.height(sigma))
        for sigma in sigmas
    ]
    families = {}
    for e, descs in descriptors.items():
        fam = _checked_family(m, filt, linear[e], descs[0][-1])
        if fam is not None:
            families[e] = fam
    return generic, families, tuple(_cap_note(1, d, cap) for d, cap in capped)


def _search_periodic(cat):
    """The periodic entries of a catalog and all its budget notes: those
    of the period-one search, then those of the f^k searches.

    The search for fixed paths runs on f^k, k = 2..period_bound, among
    paths not already fixed: the period-one paths of the catalog, in both
    orientations, are skipped there, since f^k fixes them with period one.
    The members of linear families are fixed by f too (f(E) = E.w^d with
    w Nielsen), so the f^k searches drop their family descriptors and
    ``known`` holds only the generic entries.  Every other candidate (a
    member over an axis that is not cyclically reduced included) gets the
    f^k_# check and period probe.  The rays of f^k are read off the catalog's term DAG
    where it covers them (:class:`TermIterates`), which is built on the
    first such ray.

    The search on f^k is skipped when every direction that D(f^k) fixes is
    *tame*: a fixed edge of f, or the oriented edge E of a linear stratum
    whose axis lies in the fixed subgraph F of f.  *Lemma.*  Then the
    search would find no path of period k.  *Proof.*  A ray from a tame
    direction has only fixed edges and linear edges over F, so every
    candidate sigma is such a path, sigma = g0 e1 g1 ... em gm with each gi
    in F and each ei a linear edge over F.  f^k_# replaces each gi with
    [a^k gi b^k], a and b the twists of its neighbouring linear edges (or
    trivial), and cancels nowhere else: where e(i+1) = reverse(ei), gi is
    nontrivial and [u^k gi u^-k] a conjugate of it.  By unique roots in
    pi_1(F), [a^k g b^k] = g exactly when [a g b] = g.  So f^k_#(sigma) =
    sigma exactly when f_#(sigma) = sigma, and the period probe would drop
    sigma.  A tame ray never reaches the iterate cap either: a fixed edge's
    stops at once and a linear edge's grows with every iterate.  []  The
    test reads D(f^k) itself, which on maps that are not train tracks can
    differ from (Df)^k, so f^k is still composed, and its composition still
    checks that no edge goes to a trivial path.
    """
    m, bound = cat.map, cat.bound
    g = m.graph
    filt = filtration(m)
    linear = _linear_index(m).edges
    fixed = {d for d in g.directions() if m.image_of[d] == (d,)}
    tame = fixed.union(e for e, lin in linear.items() if fixed.issuperset(lin.w))
    known = frozenset(
        edges
        for entry in cat.generic
        for edges in (entry.path.edges, entry.path.reverse().edges)
    )
    periodic = []
    notes = list(cat._found[2])
    mk = m
    for k in range(2, cat.period_bound + 1):
        try:
            mk = compose(m, mk)
        except MalformedPath:
            e = next(e for e in g.edge_names if m.apply(mk.edge_images[e]).is_trivial())
            raise MalformedPath(
                "f^%d maps %r to a trivial path (periodic Nielsen search)" % (k, e)
            ) from None
        dk = direction_map(mk).map
        if all(d in tame for d in g.directions() if dk[d] == d):
            continue
        sigmas_k, _, _, capped = _search_fixed_paths(mk, bound, known, linear, (cat, k))
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
    linear edge, ``bar`` its reverse as an edge tuple; each member edge, the
    ``neg_edge`` of one of the linear ``strata``, carries its exponent
    measured in that orientation (None where its word differs by more than
    orientation, which breaks clause L), in ``members`` in the strata's
    order and in the ``exponent`` dict.
    """

    def __init__(self, word, strata):
        self.word = word
        self.bar = bar = _reverse(word.graph.inverse_of, word.edges)
        self.members = [  # list of (oriented edge, signed exponent)
            (s.neg_edge, s.exponent if s.axis.edges == word.edges else -s.exponent
             if s.axis.edges == bar else None)
            for s in strata
        ]
        self.exponent = dict(self.members)

    def __repr__(self):
        ms = ", ".join("%s^%s" % (e, d) for e, d in self.members)
        return "<axis %r [%s]>" % (self.word, ms)


def _circuit_key(g, word):
    """One key per unoriented circuit of a closed edge word: the least
    rotation, in either orientation, of its cyclically reduced core, as
    order keys."""
    core = cyclic_decompose(word)[1]
    keys = [g.order_key[e] for e in core]
    bar = [g.order_key[g.inverse_of[e]] for e in reversed(core)]
    return min((tuple(w[i:] + w[:i]) for w in (keys, bar) for i in range(len(w))), default=())


LinearEdge = namedtuple("LinearEdge", "edge axis w bar d")
LinearIndex = namedtuple("LinearIndex", "axes edges fault")


def _linear_index(m):
    """The one index of m's linear strata (each read as its ``neg_edge`` E,
    ``axis`` w and ``exponent`` d, f(E) = E.w^d), cached on the map:
    ``axes``, the :class:`Axis` of each unoriented axis circuit in
    circuit-key order; ``edges``, {E: :class:`LinearEdge` (E, its axis, w,
    reverse(w), d)} in edge order; and ``fault``, the first way the linear
    edges break clause L (two on one axis whose words differ by more than
    orientation, or with equal exponents), or None.  Building it never
    raises; :func:`axes` does."""
    if "linear" in m._cache:
        return m._cache["linear"]
    g = m.graph
    groups, keys = {}, {}
    for s in sorted((s for s in filtration(m) if s.linear), key=lambda s: g.order_key[s.neg_edge]):
        word = s.axis.edges
        if word not in keys:
            keys[word] = _circuit_key(g, word)
        groups.setdefault(keys[word], []).append(s)
    out, edges, fault = [], {}, None
    for key in sorted(groups):
        strata = groups[key]
        ax = Axis(strata[0].axis, strata)
        out.append(ax)
        for s in strata:
            w = s.axis.edges
            bar = ax.bar if w == ax.word.edges else _reverse(g.inverse_of, w)
            edges[s.neg_edge] = LinearEdge(s.neg_edge, ax, w, bar, s.exponent)
        exps = [d for _, d in ax.members]
        if fault is None and None in exps:
            fault = ("linear edges %s and %s share the axis circuit but their twisting words "
                     "differ by more than orientation" % (strata[0].neg_edge,
                                                          strata[exps.index(None)].neg_edge))
        elif fault is None and len(set(exps)) != len(exps):
            fault = "axis %r carries two linear edges with equal exponents" % ax.word
    m._cache["linear"] = out = LinearIndex(tuple(out), edges, fault)
    return out


def axes(m):
    """The :class:`Axis` of each unoriented axis of m's linear edges, read
    off :func:`_linear_index`: the same tuple on every call, or LViolation
    on every call for a map whose linear edges break clause L."""
    index = _linear_index(m)
    if index.fault:
        raise LViolation(index.fault)
    return index.axes


def _axis_power(ax, mid):
    """The signed power p with ``mid`` = w^p, w the axis word, or None."""
    k, rest = divmod(len(mid), len(ax.bar))
    if rest:
        return None
    if mid == ax.word.edges * k:
        return k
    return -k if mid == ax.bar * k else None


class QEFamily:
    """Paths e_i . w^p . inverse(e_j), p ranging over the integers.

    e_i, e_j are distinct linear edges over the common based axis word w
    (e_i the one with the smaller construction index).  The family is
    exceptional when the exponents have the same sign; only then are its
    members complete-splitting terms.  A map builds the family of a pair
    only when a splitting meets it (:func:`_qe_family`).
    """

    def __init__(self, axis, e_i, d_i, e_j, d_j):
        self.axis = axis
        self.e_i, self.d_i = e_i, d_i
        self.e_j, self.d_j = e_j, d_j

    def key(self):
        return (self.e_i, self.e_j, self.axis.word.edges)

    def is_exceptional(self):
        return self.d_i * self.d_j > 0

    def matches(self, path):
        """Signed power p when ``path`` is a member (measured from e_i), else None."""
        if len(path) < 2:
            return None
        first, last = path.edges[0], inverse(path.edges[-1])
        if {first, last} != {self.e_i, self.e_j} or first == last:
            return None
        p = _axis_power(self.axis, path.edges[1:-1])
        return p if p is None or first == self.e_i else -p

    def __repr__(self):
        kind = "exceptional" if self.is_exceptional() else "quasi-exceptional"
        return "<%s family %s w^* %s' over %r>" % (kind, self.e_i, self.e_j, self.axis.word)


def _qe_family(m, e, f):
    """The QE family of the linear edges e and f on one axis, built when a
    splitting first meets the pair and kept on the map per pair, e_i the
    edge with the smaller construction index."""
    if m.graph.edge_index(e) > m.graph.edge_index(f):
        e, f = f, e
    built = m._cache.setdefault("qe_family", {})
    if (e, f) not in built:
        ax = _linear_index(m).edges[e].axis
        built[e, f] = QEFamily(ax, e, ax.exponent[e], f, ax.exponent[f])
    return built[e, f]


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
    """The terms of a path's complete splitting, in path order.

    ``closed`` is True when :func:`complete_split` found it in closed form,
    [E][x_1]...[x_m] with E not fixed and every x_i a fixed edge: then it
    has no exceptional term and one term on a moving edge, its first, and
    readers may take that from the path without walking the terms
    (:class:`_ClosedSplitting`).
    """

    closed = False

    def __init__(self, path, terms):
        self.path = path
        self.terms = terms

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "<splitting %s>" % " | ".join(
            " ".join(t.path.edges) for t in self.terms
        )


class _ClosedSplitting(CompleteSplitting):
    """A closed-form splitting [E][x_1]...[x_m]: one single term per edge
    of its path, the map's own (:func:`_single_term`), listed on the first
    read of ``terms`` and kept unchanged from then on."""

    closed = True

    def __init__(self, m, filt, path):
        self.path = path
        self._map, self._filt = m, filt

    @cached_property
    def terms(self):
        return [_single_term(self._map, self._filt, x) for x in self.path.edges]


def _single_term(m, filt, e):
    """The single-edge term of the oriented edge e, outside zero strata,
    its height from ``filt``, m's filtration: built on first use, once per
    map, and shared by every splitting on it."""
    single = m._cache.setdefault("single_terms", {})
    if e not in single:
        single[e] = Term(TERM_EDGE, Path(m.graph, (e,)), height=filt.level(e))
    return single[e]


_NO_MORE = iter(())  # an exhausted candidate iterator, shared


def _is_legal_turn(m, a, b):
    """Whether the turn (a, b) is legal (:func:`maps.is_illegal_turn`),
    memoised per turn on the map."""
    legal = m._cache.setdefault("legal_turns", {})
    if (a, b) not in legal:
        legal[a, b] = not is_illegal_turn(m, a, b)
    return legal[a, b]


def _candidates(m, path, i, filt, inps_by_first, families):
    """Candidate terms starting at offset i, in search priority order:
    longest first, an exceptional path before an iNp of the same length,
    a single edge last.

    Exceptional paths E w^p Fbar come from E's axis in the map's linear
    index (:func:`_linear_index`), generic iNps from ``inps_by_first``.
    Where the edge at i is the E of an indivisible family, its members
    E b^k Ebar, k >= 1, are matched without building one: the repeats of b,
    and of reverse(b) (a member read backwards), are counted, and where
    Ebar follows k >= 1 of them, that member is a candidate.  Ebar is no
    edge of b, so no other k can match.
    """
    e = path.edges[i]
    lvl = filt.level(e)
    if filt[lvl].kind == "zero":
        j = i
        while j < len(path) and filt.level(path.edges[j]) == lvl:
            j += 1
        return [Term(TERM_CONN, path.subpath(i, j), height=lvl)]
    cands = []
    edges, inverse_of = path.edges, m.graph.inverse_of
    # exceptional paths: each orientation of E's axis is walked once, and
    # a closing edge Fbar, F another member with E's sign, ends a term
    lin = _linear_index(m).edges.get(e)
    if lin:
        exponent = lin.axis.exponent
        ends = {}
        for body in (lin.axis.word.edges, lin.axis.bar):
            pos = i + 1
            while True:
                f = pos < len(edges) and inverse_of[edges[pos]]
                if f and f != e and exponent.get(f, 0) * exponent[e] > 0:
                    ends[pos + 1] = f
                if edges[pos : pos + len(body)] != body:
                    break
                pos += len(body)
        for end, f in ends.items():
            cands.append((end, Term(TERM_EXC, path.subpath(i, end), family=_qe_family(m, e, f))))
    # indivisible Nielsen paths from the catalog, longest first
    for sigma, height in inps_by_first.get(e, []):
        n = len(sigma)
        if path.edges[i : i + n] == sigma.edges:
            cands.append((i + n, Term(TERM_INP, path.subpath(i, i + n), height=height)))
    # members of E's linear family, for every k >= 1
    if e in families and not families[e][2]:
        b, height, _ = families[e]
        tail, n = inverse_of[e], len(b)
        for body in (b, _reverse(inverse_of, b)):
            pos = i + 1
            while edges[pos : pos + n] == body:
                pos += n
            if pos > i + 1 and pos < len(edges) and edges[pos] == tail:
                cands.append((pos + 1, Term(TERM_INP, path.subpath(i, pos + 1), height=height)))
    # a single edge of an irreducible stratum
    cands.sort(key=lambda et: (-et[0], et[1].kind != TERM_EXC))
    return [t for _, t in cands] + [_single_term(m, filt, e)]


def _closed_split(m, filt, path):
    """The complete splitting [E][x_1]...[x_m] of the tight path E x_1 ...
    x_m, m >= 1, its terms the map's single terms, listed when first read,
    when E lies outside zero strata and is not fixed, every x_i is a fixed
    edge, f(x_i) = x_i, and the turn (Ebar, x_1) is legal; None otherwise.
    See :func:`complete_split` for why no other splitting exists."""
    image_of, inverse_of = m.image_of, m.graph.inverse_of
    edges = path.edges
    e = edges[0]
    if (
        len(edges) < 2
        or image_of[e] == (e,)
        or filt[filt.level(e)].kind == "zero"
        or any(image_of[x] != (x,) for x in edges[1:])
        or not _is_legal_turn(m, inverse_of[e], edges[1])
    ):
        return None
    return _ClosedSplitting(m, filt, path)


def complete_split(m, path, catalog=None):
    """Parse a path into complete-splitting terms.

    Terms are single edges of irreducible strata, indivisible Nielsen paths
    (the catalog's generic iNps, and the members E b^k Ebar of its
    indivisible linear families for every k >= 1, longer than the bound
    included), exceptional paths, and maximal connecting subpaths in zero
    strata.  Candidates are tried longest first with backtracking, and a
    term may end at an offset 0 < i < len(path) only where the path's turn
    (inverse(path[i-1]), path[i]) is legal.  Raises NotCompletelySplit with
    the furthest offset that a candidate reached when no parse survives.

    The rule is exact on a CT.  At a cut, let a be the reverse of the left
    term's last edge and b the right term's first edge.  Then f^k_# of the
    left term ends with the reverse of Df^k(a), and f^k_# of the right term
    begins with Df^k(b).  For a single edge or a connecting path this holds
    because its f^k_# is f^(k-1)_# of its image, which is completely split;
    for a Nielsen or exceptional term because its end directions are
    Df-fixed on a CT.  By induction on k over all f(E) at once, f^k_# of
    adjacent terms meet at the turn (Df^k(a), Df^k(b)).  A turn is legal
    when no iterate of Df makes it degenerate, so a legal cut never
    cancels and an illegal one cancels under some f^k_#.  The rule is not
    exact on arbitrary paths of maps that are not relative train tracks,
    where f^k_# of a term need not begin and end with those directions.

    The rule reads only the turn at the cut, never the terms on either
    side, so whether the rest of the path parses from an offset does not
    depend on the parse before it: an offset that failed once is never
    expanded again, and the search expands each offset at most once.

    Legality is decided only at the cuts the search tries, once per turn
    per map.  An offset whose edge is no linear edge (which may start an
    exceptional path) and starts no listed iNp, no linear family and no
    connecting path has its single edge as
    its only candidate, which is taken without the candidate scan: the
    search appends the map's one term for that edge (:func:`_single_term`)
    and reads the turn's legality off the map's memo, so a plain offset
    builds no term and no path.  Terms are shared between splittings and
    never changed.

    *Closed form.*  Let the path be E x_1 ... x_m, m >= 1, with E outside
    zero strata and not fixed, each x_i a fixed edge, f(x_i) = x_i, and
    the turn (Ebar, x_1) legal.  Then its splitting is [E][x_1]...[x_m],
    which :func:`_closed_split` returns without reading the catalog's
    entries or the linear index, its terms listed only when read.
    *Proof.*  It is what the search finds, since no candidate but a single
    edge starts at any offset.  A listed
    iNp E.y with y fixed is impossible: f_#(E y) = [f(E) y] = E y forces
    f(E) = E.  A tight path of two or more fixed edges is Nielsen with a
    Nielsen prefix, so the catalog lists it only as composite.
    Exceptional terms E w^p E_j' and family members E b^k Ebar end in the
    inverse of a linear edge, and no x_i is one.  Each cut is then legal:
    the first by hypothesis, and every turn (x_ibar, x_(i+1)) inside the
    run because its two directions are Df-fixed and distinct (the path
    is tight), and two distinct fixed directions never merge.  []  Every
    other path, one whose first turn is illegal included, takes the
    search.  Clause L is checked first either way, off the map's linear
    index (:func:`axes`), so a map breaking it splits no path.
    """
    if catalog is None:
        catalog = build_catalog(m)
    filt = filtration(m)
    if path.is_trivial():
        return CompleteSplitting(path, [])
    axes(m)  # clause L, off the cached index: a map breaking it splits nothing
    closed = _closed_split(m, filt, path)
    if closed is not None:
        return closed
    linear = _linear_index(m).edges
    inps_by_first, families = catalog.inps_by_first, catalog.families
    single = m._cache.setdefault("single_terms", {})
    legal = m._cache.setdefault("legal_turns", {})
    edges, inverse_of, n = path.edges, m.graph.inverse_of, len(path)

    # Depth-first search with an explicit stack, so the depth is not
    # limited by the number of terms.  ``terms`` is the parse so far and
    # ``todo`` holds, per open offset, the candidates not yet tried there.
    terms, todo, failed = [], [], set()
    i = furthest = 0
    while i < n:
        e = edges[i]
        term = single.get(e)
        if term is None and filt[filt.level(e)].kind != "zero":
            term = _single_term(m, filt, e)
        if term is None or e in linear or e in inps_by_first or e in families:
            todo.append(iter(_candidates(m, path, i, filt, inps_by_first, families)))
        else:
            j = i + 1
            furthest = max(furthest, j)
            todo.append(_NO_MORE)  # the single edge is the offset's one candidate
            if j == n or j not in failed and (
                legal.get((inverse_of[e], edges[j])) or _is_legal_turn(m, inverse_of[e], edges[j])
            ):
                terms.append(term)
                i = j
                continue
        while todo:
            for term in todo[-1]:
                j = i + len(term.path)
                furthest = max(furthest, j)
                if j == n or (
                    j not in failed and _is_legal_turn(m, inverse_of[edges[j - 1]], edges[j])
                ):
                    break
            else:
                todo.pop()
                failed.add(i)
                if terms:
                    i -= len(terms.pop().path)
                continue
            terms.append(term)
            i = j
            break
        else:
            raise NotCompletelySplit(
                "path %r is not completely split" % path, position=furthest
            )
    return CompleteSplitting(path, terms)


def _is_nielsen_term(m, t):
    if t.kind == TERM_INP:
        return True
    if t.kind == TERM_EDGE:
        e = t.path.edges[0]
        return m.image_of[e] == (e,)
    return False


def qe_split(m, path, catalog=None):
    """QE-splitting: complete splitting with runs [e_i][Nielsen...][e_j']
    matching a family merged into one quasi-exceptional term (and
    exceptional single terms relabelled).  QE terms never overlap; the scan
    is left to right, carrying the offset of the term it is at.  A QE term
    needs an opening and a closing single term on two linear edges of one
    axis (:func:`_linear_index`), and the family of a merged run is built
    only once the run matches it (:func:`_qe_family`).  A closed-form
    splitting (``CompleteSplitting.closed``) has no exceptional term and
    one single term on a non-fixed edge, by its lemma, and is returned as
    it is."""
    splitting = complete_split(m, path, catalog)
    if splitting.closed:
        return splitting
    terms, linear = splitting.terms, _linear_index(m).edges
    out = []
    i = lo = 0  # terms[i] starts at offset lo of the path
    while i < len(terms):
        t = terms[i]
        hi = lo + len(t.path)
        if t.kind == TERM_EXC:
            t = Term(TERM_QE, t.path, family=t.family, power=t.family.matches(t.path))
        elif t.kind == TERM_EDGE and t.path.edges[0] in linear:
            e = t.path.edges[0]
            j, end = i + 1, hi
            while j < len(terms) and _is_nielsen_term(m, terms[j]):
                end += len(terms[j].path)
                j += 1
            ax = linear[e].axis
            f = j < len(terms) and terms[j].kind == TERM_EDGE and inverse(terms[j].path.edges[0])
            p = _axis_power(ax, path.edges[lo + 1 : end]) if f in ax.exponent and f != e else None
            if p is not None:
                fam = _qe_family(m, e, f)
                t = Term(TERM_QE, path.subpath(lo, end + 1), family=fam,
                         power=p if e == fam.e_i else -p)
                i, hi = j, end + 1
        out.append(t)
        i += 1
        lo = hi
    return CompleteSplitting(path, out)


# -- iterates from splitting terms -------------------------------------------------


class TermIterates:
    """f^k_#(P) for the pieces P of f, read off the QE-splittings of their
    images as a memoised DAG: exact lengths as integers, and the first n
    edges, or all, by descent with an explicit stack.  Nothing is tightened
    and no f_# is taken.  A piece is an edge or a connecting path of a zero
    stratum, given as an edge tuple in either orientation.

    Node (P, k) is f^k_#(P).  A fixed edge is its own node, and a linear
    edge E, f(E) = E.w^d with w cyclically reduced, is E w^(kd), w and d
    read off the map's linear index (:func:`_linear_index`).  Any
    other piece P is P at k = 0 and, for k >= 1, the concatenation of
    f^(k-1)_#(t) over the terms t of the QE-splitting of f_#(P)
    (:meth:`NielsenCatalog.image_qe_split`).  A Nielsen term is fixed.  A
    QE term E_p w^q E_q' goes to E_p w^(q + (k-1)(d_p - d_q)) E_q', as f_#
    fixes w.  An edge or connecting term is the node (t, k-1).

    *Lemma.*  Suppose every image f_#(Q) that the descent from P meets
    splits (its terms end only at legal turns, :func:`complete_split`) and
    keeps the end edges of f(Q) (an edge's does, a connecting path's where
    ``check_ct``'s CS clause holds), and every Nielsen and QE term of those
    splittings has Df-fixed end directions.  Then f^k_#(P) is that
    concatenation, with no cancellation.  *Proof.*  By induction on k, f^k_#
    of a term t begins with Df^k of t's first edge and ends with the reverse
    of Df^k of the reverse of its last edge: for a node because f^k_#(t) =
    f^(k-1)_#(f_#(t)) and f_#(t) splits with f(t)'s end edges (induction on
    k), for a Nielsen or QE term because its closed form keeps its end edges
    and these are Df-fixed.  So the images of adjacent terms meet at the
    Df^k-image of a legal turn, which is not degenerate, and nothing
    cancels.  []

    The hypotheses are checked per piece when the descent first meets
    it; :meth:`refusal` names the first that fails below P, if any.  There
    ``build_fa`` and ``verify_commute`` refuse, and only the f^k searches'
    rays take f_# instead.

    :meth:`twisted` applies a map g that acts as f^(n(E)) on each edge E,
    n constant on each almost invariant class (the maps f_a), to f^k_#(P)
    leaf by leaf.  *Companion lemma.*  With n so, and g fixing every
    Nielsen leaf and every axis below P, g_#(f^k_#(P)) is the
    concatenation of the g-images of the leaves, with no cancellation.
    *Proof.*  The terms of f(Q)'s splitting that are nodes lie in Q's
    class (the partition's construction), so at every cut the two sides
    end, after g, in Df^(l + n_j) of the legal turn there, j that class,
    or in Df-fixed directions.  []  g fixes a leaf or axis when n is
    constant on its edges outside fixed strata: g acts on it as a power of
    f, which fixes it.  :meth:`twisted` checks this per leaf.
    """

    def __init__(self, cat):
        m = cat.map
        g = m.graph
        self.catalog = cat
        self.graph = g
        self._fixed_dir = direction_map(m).map
        filt = filtration(m)
        self._stratum = {e: filt[filt.level(e)] for e in g.directions()}
        self._linear = _linear_index(m).edges
        self._leaves = {}  # (split piece, flipped) -> its leaves, or None when refused
        self._refused = {}  # split piece -> the hypothesis failing at or below it
        self._closure = {}  # split piece -> the split pieces below it, or None
        self._lengths = {}  # split piece -> [|f^k_#(P)| for k = 0, 1, ...]
        self._short = {}  # (split piece, k, flipped) -> f^k_#(P), at most SHORT edges

    # -- pieces and leaves -----------------------------------------------------

    def _key(self, piece):
        """(canonical piece, flipped): an edge in its positive orientation,
        a connecting path in the lesser one."""
        if len(piece) == 1:
            key = (base_name(piece[0]),)
            return key, key[0] != piece[0]
        g = self.graph
        key = _lesser_orientation(g.order_key, piece, _reverse(g.inverse_of, piece))
        return key, key != piece

    def _leaf(self, piece):
        """The leaf of a piece: ("fixed", piece) for a fixed edge, ("linear",
        its :class:`LinearEdge`, reversed) for the edge E of a linear
        stratum, f(E) = E.w^d with w cyclically reduced, read off the linear
        index, and ("node", canonical piece, flipped) for any other piece,
        which is read off its image's splitting."""
        if len(piece) == 1:
            e, inverse_of = piece[0], self.graph.inverse_of
            if self._stratum[e].kind == "fixed":
                return ("fixed", piece)
            lin = self._linear.get(e) or self._linear.get(inverse_of[e])
            if lin and lin.w[-1] != inverse_of[lin.w[0]]:
                return ("linear", lin, e != lin.edge)
        return ("node",) + self._key(piece)

    def _split(self, key):
        """The leaves of the QE-splitting of f_#(key) in path order, each
        ("fixed", edges), ("qe", family, power, reversed) or a leaf of
        :meth:`_leaf`; None when the image does not split or a hypothesis
        of the lemma fails, which ``_refused`` then states.  The leaves of
        the reversed piece, each reversed, are kept beside them."""
        if (key, False) in self._leaves:
            return self._leaves[key, False]
        g, fixed_dir = self.graph, self._fixed_dir
        inverse_of = g.inverse_of
        leaves, why = [], None
        try:
            split = self.catalog.image_qe_split(Path(g, key))
        except (NotCompletelySplit, LViolation) as exc:
            why = str(exc)
        else:
            image, f = split.path.edges, self.catalog.map.image_of
            if image[:1] + image[-1:] != (f[key[0]][0], f[key[-1]][-1]):
                why = "f_# cancels at an end, to %r" % split.path
        for t in () if why else split.terms:
            edges = t.path.edges
            first, last = edges[0], inverse_of[edges[-1]]
            if t.kind not in (TERM_INP, TERM_QE):
                leaves.append(self._leaf(edges))
            elif fixed_dir[first] != first or fixed_dir[last] != last:
                why = "Df moves an end direction of its %s term %s" % (t.kind, " ".join(edges))
                break
            elif t.kind == TERM_INP:
                leaves.append(("fixed", edges))
            else:
                w = t.family.axis.word.edges
                if w[-1] == inverse_of[w[0]]:
                    why = "its qe term %s has an axis not cyclically reduced" % " ".join(edges)
                    break
                leaves.append(("qe", t.family, t.power, first != t.family.e_i))
        if why:
            self._refused[key] = "f(%s): %s" % (" ".join(key), why)
            self._leaves[key, False] = self._leaves[key, True] = None
        else:
            self._leaves[key, False] = leaves
            self._leaves[key, True] = [
                ("fixed", _reverse(inverse_of, x[1])) if x[0] == "fixed"
                else x[:3] + (not x[3],) if x[0] == "qe"
                else x[:2] + (not x[2],)
                for x in reversed(leaves)
            ]
        return self._leaves[key, False]

    def refusal(self, piece):
        """None when the lemma's hypotheses hold for every image below the
        piece, so that its nodes give f^k_#(piece); otherwise the one that
        fails first, and where."""
        leaf = self._leaf(piece)
        if leaf[0] == "node" and self._pieces_below(leaf[1]) is None:
            return self._refused[leaf[1]]
        return None

    def _pieces_below(self, key):
        """The split pieces reachable from a split piece, itself included,
        or None when one of them is refused."""
        if key not in self._closure:
            seen, todo = {key: None}, [key]
            while todo:
                below = todo.pop()
                leaves = self._split(below)
                if leaves is None:
                    self._refused[key] = self._refused[below]
                    seen = None
                    break
                for leaf in leaves:
                    if leaf[0] == "node" and leaf[1] not in seen:
                        seen[leaf[1]] = None
                        todo.append(leaf[1])
            self._closure[key] = seen and list(seen)
        return self._closure[key]

    # -- closed forms ------------------------------------------------------------

    def _form(self, leaf, level, shift=None):
        """(pre, body, count, post), the leaf's edges at ``level`` being pre
        + body * count + post, where a linear edge E has taken level +
        shift(E) iterations (level alone without ``shift``).  A split piece
        is read at level 0."""
        inverse_of = self.graph.inverse_of
        kind = leaf[0]
        if kind == "fixed":
            return leaf[1], (), 0, ()
        if kind == "qe":
            _, fam, p, back = leaf
            w, bar = fam.axis.word.edges, fam.axis.bar
            n_i = level + (shift(fam.e_i) if shift else 0)
            n_j = level + (shift(fam.e_j) if shift else 0)
            power = p + n_i * fam.d_i - n_j * fam.d_j
            if back:
                return (fam.e_j,), bar if power >= 0 else w, abs(power), (inverse_of[fam.e_i],)
            return (fam.e_i,), w if power >= 0 else bar, abs(power), (inverse_of[fam.e_j],)
        if kind == "node":  # a split piece, at level 0
            return (_reverse(inverse_of, leaf[1]) if leaf[2] else leaf[1]), (), 0, ()
        _, lin, back = leaf
        e = lin.edge
        count = (level + (shift(e) if shift else 0)) * lin.d
        return ((), lin.bar, count, (inverse_of[e],)) if back else ((e,), lin.w, count, ())

    def _leaf_length(self, leaf, level):
        if leaf[0] == "node" and level:
            return self._lengths[leaf[1]][level]
        pre, body, count, post = self._form(leaf, level)
        return len(pre) + len(body) * count + len(post)

    def _children(self, key, level, flipped):
        """The leaves of node (key, level >= 1) in the order in which a stack
        pops them in path order, each at level - 1."""
        return [(x, level - 1) for x in reversed(self._leaves[key, flipped])]

    # -- reading nodes -----------------------------------------------------------

    def length(self, piece, k):
        """|f^k_#(piece)|, exact, from per-level lengths kept per piece."""
        leaf = self._leaf(piece)
        if leaf[0] != "node" or not k:
            return self._leaf_length(leaf, k)
        key = leaf[1]
        below = self._pieces_below(key)
        tables = self._lengths
        for j in range(min(len(tables.setdefault(p, [len(p)])) for p in below), k + 1):
            for p in below:
                if len(tables[p]) == j:
                    tables[p].append(sum(self._leaf_length(x, j - 1)
                                         for x in self._leaves[p, False]))
        return tables[key][k]

    def head(self, piece, k, n=None):
        """The first n edges of f^k_#(piece) (all of them when n is None).
        The descent opens only the nodes it reads into, and takes a node of
        at most SHORT edges whole, written once."""
        self.length(piece, k)  # the per-level lengths the descent reads
        out = []
        stack = [(self._leaf(piece), k)]
        while stack and (n is None or len(out) < n):
            leaf, level = stack.pop()
            if leaf[0] == "node" and level:
                if self._lengths[leaf[1]][level] > SHORT:
                    stack.extend(self._children(leaf[1], level, leaf[2]))
                else:
                    out.extend(self._written(leaf[1], level, leaf[2]))
            else:
                _extend_form(out, self._form(leaf, level), n)
        if n is not None:
            del out[n:]
        return tuple(out)

    def _written(self, key, k, flipped):
        """f^k_#(key), k >= 1, of at most SHORT edges, reversed when
        flipped, memoised with the nodes below it (as short as it, since
        nothing cancels)."""
        memo, todo = self._short, [(key, k, flipped)]
        while todo:
            node = todo[-1]
            if node in memo:
                todo.pop()
                continue
            p, level, back = node
            leaves = self._leaves[p, back]
            below = [
                (x[1], level - 1, x[2]) for x in leaves
                if x[0] == "node" and level > 1 and (x[1], level - 1, x[2]) not in memo
            ]
            if below:
                todo.extend(below)
                continue
            todo.pop()
            out = []
            for x in leaves:
                if x[0] == "node" and level > 1:
                    out.extend(memo[x[1], level - 1, x[2]])
                else:
                    _extend_form(out, self._form(x, level - 1), None)
            memo[node] = tuple(out)
        return memo[key, k, flipped]

    def twisted(self, piece, k, n):
        """g_#(f^k_#(piece)) as an edge tuple, g acting as f^(n(E)) on each
        edge E (see the companion lemma).  Raises FaRefused when g may move
        one of its Nielsen leaves or axes."""
        out, bare = [], {}  # bare: g-images of the split pieces at level 0
        stack = [(self._leaf(piece), k)]
        while stack:
            leaf, level = stack.pop()
            if leaf[0] == "node":
                if level:
                    stack.extend(self._children(leaf[1], level, leaf[2]))
                    continue
                if leaf not in bare:
                    bare[leaf] = self.head(self._form(leaf, 0)[0], n(leaf[1][0]))
                out.extend(bare[leaf])
                continue
            if not self._fixes(n, leaf):
                raise FaRefused("f_a is defined only for a CT, and f_a may move a Nielsen leaf"
                                " or an axis of f^%d_#(%s)" % (k, " ".join(piece)))
            _extend_form(out, self._form(leaf, level, n), None)
        return tuple(out)

    def _fixes(self, n, leaf):
        """Whether g fixes a Nielsen leaf, or the axis of a linear or QE
        leaf: n is constant on its edges outside fixed strata, so that g
        acts on it as a power of f."""
        if leaf[0] == "qe":
            edges = leaf[1].axis.word.edges
        elif leaf[0] == "linear":
            edges = leaf[1].w
        else:
            edges = leaf[1]
        return len({n(e) for e in edges if self._stratum[e].kind != "fixed"}) <= 1


# Nodes of at most this many edges are written out once and read whole.
SHORT = 1024


def _extend_form(out, form, n):
    """Append a closed form's edges to ``out``; with n, a long power is
    written only as far as n edges in all reach."""
    pre, body, count, post = form
    if n is not None and body and count:
        count = min(count, -(-max(0, n - len(out) - len(pre)) // len(body)))
    out.extend(pre)
    out.extend(body * count)
    out.extend(post)
