"""The acceptance gate: every release-blocking property in one module.

Each test prints a single PASS/FAIL line for its criterion so the suite
output doubles as a checklist.  All comparisons are bit-exact; the only
non-exact criterion is the timing separation, which uses generous margins.
"""

import random
import statistics
import time
from fractions import Fraction as F

import pytest

from pfhaf.errors import DegenerateFormError, SizeError
from pfhaf.kernels import (
    det_bareiss,
    det_oracle,
    hf_oracle,
    hf_recursive,
    perm_oracle,
    perm_ryser,
    pf_elimination,
    pf_oracle,
)
from pfhaf.matrix import SquareMatrix
from pfhaf.structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    build_cauchy,
    build_hafnian_mat,
    build_schur,
    fast_cauchy_hafnian,
    fast_cauchy_perm,
    substitution_witness,
)
from pfhaf.verify import IdentityId, check_identity, gen_points, run_suite, summarize


def report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    reports = run_suite(42, [1, 2, 3, 4], 25)
    elapsed = time.perf_counter() - t0
    s = summarize(reports)
    ok = (
        s["total"] == 16 * 4 * 25
        and s["failed"] == 0
        and set(s["by_identity"]) == {i.value for i in IdentityId}
        and elapsed < 60
    )
    report(f"criterion 1: identity suite 1600/1600 exact in {elapsed:.1f}s", ok)


def test_criterion_2_pfaffian_hafnian_hand_instance():
    xs = [F(1), F(2), F(3), F(4)]
    pc = PointConfig(xs)
    g = SymmetricForm.from_name("x+y")
    # the identity is printed with numerators x_i - x_j: negate build_schur's
    lhs_mat = SquareMatrix(
        [[-v for v in row] for row in build_schur(pc, g, power=2).entries]
    )
    prod = F(1)
    for i in range(4):
        for j in range(i + 1, 4):
            prod *= (xs[i] - xs[j]) / (xs[i] + xs[j])
    haf_mat = build_hafnian_mat(pc, g)
    values = {
        pf_oracle(lhs_mat),
        pf_elimination(lhs_mat),
        prod * hf_oracle(haf_mat),
        prod * hf_recursive(haf_mat),
    }
    report("criterion 2: four-way hand instance x=(1,2,3,4)", len(values) == 1)


def test_criterion_3_borchardt_witness():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    f = BilinearForm.from_name("x+y")
    squared = det_bareiss(build_cauchy(pc, f, power=2))
    ok = (
        squared == F(49, 360000)
        and F(49, 360000) == F(1, 600) * F(49, 600)
        and squared == det_bareiss(build_cauchy(pc, f)) * perm_ryser(build_cauchy(pc, f))
    )
    rep = check_identity(IdentityId.BORCH1, pc)
    ok = ok and rep.passed and rep.lhs == "49/360000"
    report("criterion 3: Borchardt 2x2 witness 49/360000", ok)


def _rand_general(rng, n):
    return SquareMatrix(
        [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)] for _ in range(n)]
    )


def _rand_skew(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j], rows[j][i] = v, -v
    return SquareMatrix(rows)


def _rand_symmetric(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = F(rng.randint(-9, 9), rng.randint(1, 5))
            rows[i][j] = rows[j][i] = v
    return SquareMatrix(rows)


def test_criterion_4_oracle_equivalences():
    rng = random.Random(42)
    ok = True
    for _ in range(50):
        m = _rand_general(rng, rng.randint(1, 6))
        ok = ok and det_bareiss(m) == det_oracle(m)
    for _ in range(50):
        m = _rand_general(rng, rng.randint(1, 7))
        ok = ok and perm_ryser(m) == perm_oracle(m)
    for _ in range(50):
        m = _rand_skew(rng, 2 * rng.randint(1, 5))
        ok = ok and pf_elimination(m) == pf_oracle(m)
    for _ in range(50):
        m = _rand_symmetric(rng, 2 * rng.randint(1, 5))
        ok = ok and hf_recursive(m) == hf_oracle(m)
    report("criterion 4: 200 oracle-vs-fast equivalences", ok)


def test_criterion_5_pf_squared_is_det():
    rng = random.Random(43)
    ok = all(
        pf_elimination(m) ** 2 == det_bareiss(m)
        for m in (_rand_skew(rng, 2 * rng.randint(1, 4)) for _ in range(100))
    )
    report("criterion 5: Pf^2 = det on 100 random skew matrices", ok)


def test_criterion_6_lemmas_certified_as_rational_functions():
    pc = gen_points(6, 6)
    ok = True
    z_values = [F(1000 + 3 * k, 7) for k in range(13)]
    assert len(set(z_values)) == 13
    for z in z_values:
        assert all(z != x and z != -x for x in pc.xs)
        ok = ok and check_identity(IdentityId.LEMMA1, pc, z=z).passed
        ok = ok and check_identity(IdentityId.LEMMA2, pc, z=z).passed
    report("criterion 6: both expansion lemmas at 13 pole-free z values", ok)


def test_criterion_7_performance_separation():
    g = SymmetricForm.from_name("x+y")

    pc40 = PointConfig([F(i) for i in range(1, 41)])
    t0 = time.perf_counter()
    fast40 = fast_cauchy_hafnian(pc40, g)
    t40 = time.perf_counter() - t0
    ok = t40 < 5 and fast40 != 0

    with pytest.raises(SizeError):
        hf_recursive(SquareMatrix([[F(1)] * 24 for _ in range(24)]))

    pc20 = PointConfig([F(i) for i in range(1, 21)])
    b20 = build_hafnian_mat(pc20, g)

    def med(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    fast_t = med(lambda: fast_cauchy_hafnian(pc20, g), 5)
    slow_t = med(lambda: hf_recursive(b20), 3)
    ratio = slow_t / fast_t
    ok = ok and fast_cauchy_hafnian(pc20, g) == hf_recursive(b20)
    ok = ok and ratio >= 100
    report(
        f"criterion 7: 2n=40 fast in {t40:.2f}s, 2n=20 separation {ratio:.0f}x",
        ok,
    )


def test_criterion_8_degenerate_branches():
    ok = True

    f0 = BilinearForm(F(1), F(1), F(1), F(1))  # ad - bc = 0
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    try:
        fast_cauchy_perm(pc, f0)
        ok = False
    except DegenerateFormError:
        pass
    ok = ok and perm_ryser(build_cauchy(pc, f0)) == perm_oracle(build_cauchy(pc, f0))

    g0 = SymmetricForm(F(1), F(2), F(4))  # b^2 - ac = 0
    pch = PointConfig([F(1), F(2)])
    try:
        fast_cauchy_hafnian(pch, g0)
        ok = False
    except DegenerateFormError:
        pass
    b = build_hafnian_mat(pch, g0)
    ok = ok and hf_recursive(b) == hf_oracle(b)

    for seed in range(20):
        pc = gen_points(seed, 2 * random.Random(seed).randint(2, 4))
        rep = check_identity(IdentityId.DEGENERATE_PF, pc)
        ok = ok and rep.passed and rep.lhs == "0"
    report("criterion 8: degenerate discs refused, fallbacks exact, Pf = 0", ok)


def test_criterion_9_quadratic_extension_witness():
    g = SymmetricForm(F(1), F(1), F(-1))
    rep = substitution_witness(PointConfig([F(1), F(2), F(3), F(5)]), g)
    ok = rep.passed and rep.params["field"] == "Q(sqrt(2))"
    report("criterion 9: substitution witness over Q(sqrt(2)) at 2n=4", ok)
