"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test is independent and asserts both the property and its time
bound.  All checks are exact (integer edge-word equality); randomness is
seeded and deterministic.
"""

import random
import time

import pytest

from traintrack.coords import coordinate_system, evaluate
from traintrack.ct import check_ct
from traintrack.disintegrate import build_fa, disintegrate, verify_commute
from traintrack.freegroup import abelianization, is_IA
from traintrack.maps import GraphMap, compose, direction_map
from traintrack.maxrank import detect_fps, gen_type_c, gen_type_e, rank_audit

import samples
from oracles import (
    det,
    differ_by_inner,
    find_tuple_representing,
    inner_twist_pair,
    iterate,
    verify_homotopy_equivalence,
    verify_nielsen_preserved,
)


def _gate(num, label, problems, elapsed, bound=None):
    timing = " (%.3fs)" % elapsed if bound is None else " (%.3fs < %gs)" % (
        elapsed, bound)
    if bound is not None and elapsed >= bound:
        problems.append("time bound exceeded: %.3fs >= %gs" % (elapsed, bound))
    print("%s criterion %2d: %s%s" % ("PASS" if not problems else "FAIL",
                                      num, label, timing))
    assert not problems, "criterion %d: %s" % (num, "; ".join(problems))


def _sample_tuples(lattice, rng, count):
    """Deterministic non-negative lattice points (shifted along all-ones)."""
    out = []
    while len(out) < count:
        a = [0] * lattice.M
        for v in lattice.basis:
            c = rng.randint(0, 3)
            a = [x + c * y for x, y in zip(a, v)]
        low = min(a)
        if low < 0:
            a = [x - low for x in a]
        a = tuple(a)
        assert lattice.contains(a) and min(a) >= 0
        out.append(a)
    return out


@pytest.fixture(scope="module")
def sampled():
    """Shared sample set: six lattices, 35 admissible tuples each."""
    rng = random.Random(0)
    table = []
    for m in (
        samples.rose_cascade(),
        samples.qe_rose(),
        samples.partial_fps_map(),
        gen_type_e(3).generic,
        gen_type_e(4).generic,
        gen_type_c(4).generic,
    ):
        dis = disintegrate(m)
        table.append((m, dis, _sample_tuples(dis.lattice, rng, 35)))
    return table


def test_criterion_01_single_class_and_naive_split_obstruction():
    t0 = time.perf_counter()
    problems = []
    m = samples.rose_cascade()
    dis = disintegrate(m)
    if dis.M != 1:
        problems.append("expected one class, got M=%d" % dis.M)
    if dis.partition.subgraphs != (frozenset({"B", "C"}),):
        problems.append("X_1 should be {B, C}: %r" % (dis.partition.subgraphs,))
    for k in range(5):
        if not verify_commute(m, (k,), (1,), dis):
            problems.append("f_(%d) does not commute with f" % k)
    # per-stratum split {B},{C}: apply f^m on B and f^n on C independently
    g = m.graph
    for mm in range(3):
        for nn in range(3):
            naive = GraphMap(g, {
                "A": g.path(["A"]),
                "B": iterate(m, g.path(["B"]), mm),
                "C": iterate(m, g.path(["C"]), nn),
            })
            agree = (compose(naive, m).edge_images["C"]
                     == compose(m, naive).edge_images["C"])
            if agree != (mm == nn):
                problems.append(
                    "naive split (%d,%d): commutes on C should be %s"
                    % (mm, nn, mm == nn)
                )
    _gate(1, "single-class cascade; naive split commutes on C iff m=n",
          problems, time.perf_counter() - t0, 0.1)


def test_criterion_02_relation_rank_one_and_diagonal_powers():
    t0 = time.perf_counter()
    problems = []
    m = samples.qe_rose()
    dis = disintegrate(m)
    # the single relation forces a_1 = a_2
    if [r.row(dis.M) for r in dis.relations] != [[-2, 2]]:
        problems.append("relations %r" % ([r.row(dis.M) for r in dis.relations],))
    if repr(dis.relations[0]) != "a_2(2 - 1) = a_1*2 - a_2*1":
        problems.append("relation statement %r" % (repr(dis.relations[0]),))
    if dis.lattice.rank != 1 or dis.lattice.basis != [(1, 1)]:
        problems.append(
            "rank %d basis %r" % (dis.lattice.rank, dis.lattice.basis)
        )
    f_power = m
    for k in range(1, 6):
        if not build_fa(m, (k, k), dis).edges_equal(f_power):
            problems.append("f_(%d,%d) differs from f^%d" % (k, k, k))
        f_power = compose(m, f_power)
    _gate(2, "one relation (a_1 = a_2), rank 1, basis {(1,1)}, f_(k,k) = f^k",
          problems, time.perf_counter() - t0, 0.1)


def test_criterion_03_same_outer_class_different_disintegrations():
    t0 = time.perf_counter()
    problems = []
    f1, f2 = inner_twist_pair()
    conj = differ_by_inner(f1, f2)
    if conj is None:
        problems.append("maps should agree up to an inner factor")

    def target_on(mp):
        g = mp.graph
        return GraphMap(g, {
            "E1": g.path(["E1"]),
            "E2": g.path(["E2", "E1"]),
            "E3": g.path(["E3"]),
        })

    a2 = find_tuple_representing(f2, target_on(f2))
    if a2 is None:
        problems.append("target map is not any f_a of the second map")
    elif not build_fa(f2, a2).edges_equal(target_on(f2)):
        problems.append("returned tuple %r does not rebuild the target" % (a2,))
    a1 = find_tuple_representing(f1, target_on(f1))
    if a1 is not None:
        problems.append(
            "target map should not arise from the first map, got %r" % (a1,)
        )
    _gate(3, "same outer class (inner factor %r); E2->E2E1 map only from f2"
          % (conj,), problems, time.perf_counter() - t0, 0.1)


def test_criterion_04_commutation_suite(sampled):
    t0 = time.perf_counter()
    problems = []
    pairs = 0
    for m, dis, tuples in sampled:
        for a, b in zip(tuples, tuples[1:]):
            fa = build_fa(m, a, dis)
            fb = build_fa(m, b, dis)
            fab = build_fa(m, tuple(x + y for x, y in zip(a, b)), dis)
            if not (compose(fa, fb).edges_equal(fab)
                    and compose(fb, fa).edges_equal(fab)):
                problems.append("%s: pair %r, %r" % (m.name, a, b))
            pairs += 1
    if pairs < 200:
        problems.append("only %d pairs sampled" % pairs)
    _gate(4, "f_a f_b = f_b f_a = f_(a+b) on %d admissible pairs" % pairs,
          problems, time.perf_counter() - t0, 30.0)


def test_criterion_05_nielsen_preservation(sampled):
    t0 = time.perf_counter()
    problems = []
    checked_paths = 0
    for m, dis, tuples in sampled:
        for a in tuples:
            report = verify_nielsen_preserved(m, a, dis)
            if not report.passed:
                problems.append("%s %r: %s" % (m.name, a, report.failures[:2]))
            checked_paths += report.checked_nielsen + report.checked_qe
    _gate(5, "catalog Nielsen paths fixed and QE paths mapped by class power "
          "(%d path checks)" % checked_paths,
          problems, time.perf_counter() - t0, 10.0)


def test_criterion_06_coordinate_scaling_and_linearity():
    t0 = time.perf_counter()
    problems = []
    for m in (samples.qe_rose(), gen_type_e(3).generic):
        dis = disintegrate(m)
        cs = coordinate_system(m, dis)
        rng = random.Random(1)
        points = []
        while len(points) < 50:
            a = [0] * dis.lattice.M
            for v in dis.lattice.basis:
                c = rng.randint(-4, 4)
                a = [x + c * y for x, y in zip(a, v)]
            a = tuple(a)
            if dis.lattice.contains(a):
                points.append(a)
        for a in points:
            vec = evaluate(cs, dis.partition, a)
            for coord, entry in zip(cs.coordinates, vec.integer_vector()):
                s = dis.partition.class_of_stratum(coord.stratum)
                base = coord.value if coord.kind == "comparison" else 1
                if entry != a[s] * base:
                    problems.append(
                        "%s %r: entry %d != a_%d * base" % (m.name, a, entry, s)
                    )
        for a, b in zip(points[0::2], points[1::2]):
            ab = tuple(x + y for x, y in zip(a, b))
            if evaluate(cs, dis.partition, ab) != (
                evaluate(cs, dis.partition, a) + evaluate(cs, dis.partition, b)
            ):
                problems.append("%s: linearity fails on %r + %r" % (m.name, a, b))
    _gate(6, "evaluate(a) = a_s x base on 100 lattice points; additive",
          problems, time.perf_counter() - t0)


def test_criterion_07_rank_census():
    t0 = time.perf_counter()
    problems = []
    for n in (3, 4, 5):
        r = disintegrate(gen_type_e(n).generic).rank
        if r != 2 * n - 3:
            problems.append("type E n=%d: rank %d != %d" % (n, r, 2 * n - 3))
    for n in (4, 5):
        m = gen_type_c(n).generic
        r = disintegrate(m).rank
        if r != 2 * n - 4:
            problems.append("type C n=%d: rank %d != %d" % (n, r, 2 * n - 4))
        if not is_IA(m):
            problems.append("type C n=%d: homology action is not trivial" % n)
    r = disintegrate(samples.partial_fps_map()).rank
    if r != 3:
        problems.append("partial FPS example: rank %d != 3" % r)
    _gate(7, "type E rank 2n-3 (n=3,4,5); type C rank 2n-4 and IA (n=4,5); "
          "partial FPS example rank 3",
          problems, time.perf_counter() - t0, 5.0)


def test_criterion_08_rank_audit_and_fps_blocks():
    t0 = time.perf_counter()
    problems = []
    f1, f2 = inner_twist_pair()
    audit_maps = [
        samples.rose_cascade(), samples.qe_rose(), f1, f2,
        samples.partial_fps_map(), samples.full_fps_map(),
        gen_type_e(3).generic, gen_type_e(4).generic, gen_type_e(5).generic,
        gen_type_c(4).generic, gen_type_c(5).generic,
    ]
    for m in audit_maps:
        audit = rank_audit(m)
        for st in audit.stages:
            if st.delta_r > 2 * st.delta_chi - st.delta:
                problems.append("%s: stage G_%d->G_%d violates the bound"
                                % (m.name, st.lo, st.hi))
            if st.equality and st.case not in ("a", "b", "c", "d"):
                problems.append("%s: equality stage G_%d->G_%d has no shape"
                                % (m.name, st.lo, st.hi))
        if not audit.passed:
            problems.append("%s: audit failed" % m.name)

    partial = samples.partial_fps_map()
    top = rank_audit(partial).stages[-1]
    witnesses = detect_fps(partial)
    if not witnesses or witnesses[0].kind != "partial":
        problems.append("no partial FPS witness on the rank-three example")
    elif witnesses[0].strata != tuple(range(top.lo + 1, top.hi + 1)):
        problems.append("partial witness %r misses the top block G_%d->G_%d"
                        % (witnesses[0].strata, top.lo, top.hi))
    full = [w for w in detect_fps(samples.full_fps_map()) if w.kind == "full"]
    if not full:
        problems.append("no full FPS witness on the constructed instance")
    elif full[0].chi_drop != 2:
        problems.append("full FPS Euler drop %d != 2" % full[0].chi_drop)
    _gate(8, "dR <= 2*dchi - delta at every stage; equality stages shaped "
          "(a)-(d); FPS blocks located",
          problems, time.perf_counter() - t0)


def test_criterion_09_fa_is_homotopy_equivalence(sampled):
    t0 = time.perf_counter()
    problems = []
    count = 0
    for m, dis, tuples in sampled:
        if det(abelianization(m)) not in (1, -1):
            problems.append("%s: base map determinant not a unit" % m.name)
        for a in tuples:
            fa = build_fa(m, a, dis)
            if not verify_homotopy_equivalence(fa):
                problems.append("%s %r: not a homotopy equivalence" % (m.name, a))
            if det(abelianization(fa)) not in (1, -1):
                problems.append("%s %r: determinant not a unit" % (m.name, a))
            count += 1
    _gate(9, "verify_homotopy_equivalence and det = +/-1 for %d sampled f_a"
          % count, problems, time.perf_counter() - t0)


def test_criterion_10_ct_regression_and_rotationlessness():
    t0 = time.perf_counter()
    problems = []
    for m in (samples.qe_rose(), gen_type_e(3).generic, gen_type_c(4).generic):
        report = check_ct(m)
        if not report.passed:
            problems.append("%s: %s" % (
                m.name,
                [k for k, c in report.clauses.items() if not c.passed],
            ))
    swap = samples.swap_rose()
    report = check_ct(swap)
    if report.passed:
        problems.append("period-two rose should fail the structure check")
    rcl = report.clauses["R"]
    if rcl.passed or not any("period 2" in msg for msg in rcl.failures):
        problems.append("rotationlessness failure should name period-2 "
                        "directions: %r" % (rcl.failures,))
    dm = direction_map(swap)
    if not (dm.map["B"] == "C" and dm.map["C"] == "B"
            and dm.orbit_period("B") == (True, 2)):
        problems.append("directions B, C should be swapped with period 2")
    _gate(10, "structure check passes the twist families; period-2 rose "
          "reported not forward rotationless",
          problems, time.perf_counter() - t0)
