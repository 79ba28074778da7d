import hashlib
import itertools
import json
import time
from fractions import Fraction as F

import pytest

from pfhaf import kernels, verify
from pfhaf.errors import DomainError, GenError, PoleError, SizeError
from pfhaf.kernels import det_bareiss, pf_elimination
from pfhaf.matrix import SquareMatrix, minor
from pfhaf.scalar import QuadExt, rat_is_square, rat_sqrt, render_rat
from pfhaf.structured import (
    BilinearForm,
    PointConfig,
    SymmetricForm,
    sqrt_disc,
    substitution_witness,
)
from pfhaf.verify import (
    IdentityId,
    Rank2Spec,
    check_identity,
    gen_points,
    gen_rank2,
    make_instance,
    run_suite,
    summarize,
)


# -- generators ------------------------------------------------------------


def test_gen_points_deterministic():
    a = gen_points(7, 5)
    b = gen_points(7, 5)
    assert a.xs == b.xs
    assert gen_points(8, 5).xs != a.xs


def test_gen_points_constraints():
    pc = gen_points(1, 20, ys=20)
    assert len(pc.xs) == 20 and len(pc.ys) == 20
    allpts = pc.xs + pc.ys
    assert len(set(allpts)) == 40
    assert all(v > 0 for v in allpts)
    assert all(1 <= v.numerator and v.denominator <= 10 for v in allpts)


def test_gen_points_no_pole():
    g = SymmetricForm.from_name("1-xy")
    for seed in range(20):
        pc = gen_points(seed, 6, no_pole=g)
        m = len(pc.xs)
        assert all(
            pc.xs[i] * pc.xs[j] != 1 for i in range(m) for j in range(i + 1, m)
        )
    f = BilinearForm.from_name("1-xy")
    pc = gen_points(3, 4, ys=4, no_pole=f)
    assert all(x * y != 1 for x in pc.xs for y in pc.ys)


def test_gen_points_impossible_raises():
    with pytest.raises(GenError):
        gen_points(0, 5, lo=1, hi=1, max_den=1)  # only one value available
    for m, ys in ((-3, None), (2, -1)):
        with pytest.raises(DomainError, match="counts must be >= 0"):
            gen_points(1, m, ys=ys)
    for max_den in (0, -2):
        with pytest.raises(DomainError, match=f"max_den must be >= 1, got {max_den}"):
            gen_points(1, 4, max_den=max_den)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: gen_points(1, 2.5), "m must be an int, got 2.5", id="m"),
        pytest.param(
            lambda: gen_points(1, 2, ys="2"), "ys must be an int, got '2'", id="ys"
        ),
        pytest.param(
            lambda: run_suite(1, "12", 1), "sizes must be ints, got '1'", id="sizes"
        ),
        pytest.param(
            lambda: run_suite(1, 5, 1),
            "sizes must be an iterable of ints, got 5",
            id="sizes_not_iterable",
        ),
        pytest.param(
            lambda: run_suite(1, [1, 2.0], 1),
            "sizes must be ints, got 2.0",
            id="float_size",
        ),
        pytest.param(
            lambda: run_suite(1, [1], 1.5, only={IdentityId.CAUCHY1}),
            "trials_per_size must be an int, got 1.5",
            id="trials",
        ),
    ],
)
def test_counts_that_are_not_ints_are_refused(monkeypatch, call, message):
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sqrt_disc("a"), "need exact rational discriminants, got str; pass Fractions"),
        (lambda: sqrt_disc(2.0), "need exact rational discriminants, got float; pass Fractions"),
        (lambda: summarize(None), "need an iterable of reports, got NoneType"),
        (lambda: summarize("ab"), "need an IdentityReport, got str"),
        (lambda: summarize([1]), "need an IdentityReport, got int"),
        (lambda: make_instance(1, "MAIN1", 1, 0), "need an IdentityId, got str"),
        (lambda: make_instance(1, IdentityId.CARLITZ, 1.5, 0), "size must be an int, got 1.5"),
        (lambda: make_instance(1, IdentityId.MAIN1, "a", 0), "size must be an int, got 'a'"),
        (lambda: make_instance(1, IdentityId.MAIN1, -1, 0), "size must be >= 1, got -1"),
        (lambda: gen_points(1, 2, lo=1.5), "lo must be an int, got 1.5"),
        (lambda: gen_points(1, 2, hi=9.5), "hi must be an int, got 9.5"),
        (lambda: gen_points(1, 2, max_den="a"), "max_den must be an int, got 'a'"),
        (lambda: gen_points([1], 2), "seed must be an int, got [1]"),
        (lambda: gen_points(1, 2, no_pole=3), "no_pole must be a form, got int"),
        (lambda: gen_rank2(1, 1.5), "n must be an int, got 1.5"),
        (lambda: make_instance(1.5, IdentityId.MAIN1, 1, 0), "seed must be an int, got 1.5"),
        (lambda: make_instance("1.5", IdentityId.MAIN1, 1, 0), "seed must be an int, got '1.5'"),
        (lambda: run_suite(None, [1], 1), "seed must be an int, got None"),
        (lambda: render_rat("a"), "need exact rational scalars, got str; pass Fractions"),
        (lambda: rat_sqrt("a"), "need exact rational scalars, got str; pass Fractions"),
        (lambda: rat_is_square(None), "need exact rational scalars, got NoneType; pass Fractions"),
        (lambda: minor(None, ()), "need a SquareMatrix, got NoneType"),
    ],
)
def test_library_junk_is_refused_naming_the_argument(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


def test_gen_points_empty_range_raises_gen_error():
    for positive in (True, False):
        with pytest.raises(GenError, match="empty range"):
            gen_points(0, 2, positive=positive, lo=5, hi=1)


# sha256 of gen_points' draws over the grid below, taken before the pole
# test moved to integer coordinates; 520 of its 1,672 pole tests reject.
# The benchmark's instances come from gen_points, so a changed rejection
# sequence would change what it measures.
GEN_POINTS_GOLDEN = "7e870f80ce36c2bd27e7b0cc73fb1f813a0c6d7758d5521a19a269782b968794"


def test_gen_points_draws_are_pinned():
    forms = (
        None,
        SymmetricForm.from_name("x+y"),
        SymmetricForm.from_name("1-xy"),
        SymmetricForm(F(-2, 3), F(5, 2), F(-4)),
        SymmetricForm(0, F(1, 2), F(-7)),
        BilinearForm.from_name("x+y"),
        BilinearForm.from_name("1-xy"),
        BilinearForm(F(3, 2), F(-1), F(2, 3), F(-5)),
        BilinearForm(F(1, 3), 0, 0, F(-12)),
    )
    digest = hashlib.sha256()
    for seed in range(4):
        for m in (2, 5, 8):
            for form in forms:
                for max_den in (1, 4, 12):
                    for ys in (None, m):
                        for positive, lo, hi in ((True, 1, 100), (False, -9, 9)):
                            pc = gen_points(
                                seed, m, positive=positive, lo=lo, hi=hi,
                                max_den=max_den, no_pole=form, ys=ys,
                            )
                            digest.update(json.dumps(pc.to_json()).encode())
    assert digest.hexdigest() == GEN_POINTS_GOLDEN


def test_gen_rank2_is_rank_at_most_two():
    spec = gen_rank2(11, 5)
    m = spec.matrix()
    assert all(v != 0 for row in m.entries for v in row)
    # every 3x3 minor of a rank <= 2 matrix vanishes
    idx = range(1, 6)
    from itertools import combinations

    for rows_kept in combinations(idx, 3):
        for cols_kept in combinations(idx, 3):
            sub = SquareMatrix(
                [
                    [m.entries[i - 1][j - 1] for j in cols_kept]
                    for i in rows_kept
                ]
            )
            assert det_bareiss(sub) == 0


def test_rank_one_spec_satisfies_reciprocal_identity():
    spec = Rank2Spec(
        u=(F(1), F(2), F(3)),
        v=(F(1), F(1, 2), F(1, 3)),
        s=(F(0), F(0), F(0)),
        t=(F(0), F(0), F(0)),
    )
    rep = check_identity(IdentityId.CARLITZ, None, form=spec)
    assert rep.passed


def test_int_rank2_spec_equals_fraction_spec():
    data = ((1, 2, 3), (1, 5, 7), (2, 1, 4), (3, 1, 1))
    rep = check_identity(IdentityId.CARLITZ, None, form=Rank2Spec(*data))
    ref = check_identity(
        IdentityId.CARLITZ, None, form=Rank2Spec(*(tuple(map(F, v)) for v in data))
    )
    assert rep.passed
    assert (rep.lhs, rep.rhs, rep.params) == (ref.lhs, ref.rhs, ref.params)


def test_rank2_spec_refuses_zero_entries():
    # a_21 = u_2 v_1 + s_2 t_1 = 2 - 2
    with pytest.raises(PoleError, match=r"a_\(2, 1\) = 0") as exc:
        Rank2Spec((1, 2), (1, 1), (1, 1), (-2, 3))
    assert exc.value.pair == (2, 1)
    with pytest.raises(PoleError) as exc:
        Rank2Spec((1, 2), (1, 1), (1, 1), (-1, 3))
    assert exc.value.pair == (1, 1)
    with pytest.raises(DomainError, match="equal lengths"):
        Rank2Spec((1, 2), (1,), (1, 2), (1, 2))


# -- individual identities -------------------------------------------------


def test_main1_hand_instance():
    pc = PointConfig([F(1), F(2), F(3), F(4)])
    rep = check_identity(IdentityId.MAIN1, pc)
    assert rep.passed
    assert rep.lhs == rep.rhs


def test_borch1_hand_instance():
    pc = PointConfig([F(1), F(2)], [F(3), F(4)])
    rep = check_identity(IdentityId.BORCH1, pc)
    assert rep.passed
    assert rep.lhs == "49/360000"  # (1/600) * (49/600)


def test_schur1_minimal_instance():
    rep = check_identity(IdentityId.SCHUR1, PointConfig([F(1), F(2)]))
    assert rep.passed
    assert rep.lhs == "1/3"


def test_lemma1_hand_instance():
    pc = PointConfig([F(1), F(2), F(3), F(4)])
    rep = check_identity(IdentityId.LEMMA1, pc, z=F(5))
    assert rep.passed


def test_lemma2_hand_instance():
    pc = PointConfig([F(1), F(2), F(3), F(4)])
    rep = check_identity(IdentityId.LEMMA2, pc, z=F(7, 2))
    assert rep.passed


def test_carlitz_hand_instance():
    spec = gen_rank2(5, 3)
    rep = check_identity(IdentityId.CARLITZ, None, form=spec)
    assert rep.passed


def test_degenerate_pf_values():
    # the empty matrix has Pfaffian 1
    rep0 = check_identity(IdentityId.DEGENERATE_PF, PointConfig([]))
    assert rep0.passed
    assert rep0.lhs == rep0.rhs == "1"
    rep2 = check_identity(IdentityId.DEGENERATE_PF, PointConfig([F(1), F(4)]))
    assert rep2.passed
    assert rep2.lhs == "3"
    rep4 = check_identity(
        IdentityId.DEGENERATE_PF, PointConfig([F(1), F(2), F(5), F(9)])
    )
    assert rep4.passed
    assert rep4.lhs == "0"


def test_check_identity_names_what_is_missing():
    xy = PointConfig([1, 2, 3, 4], [5, 6, 7, 8])
    pc = PointConfig([1, 2, 3, 4])
    for identity in IdentityId:
        if identity is not IdentityId.CARLITZ:
            missing = f"{identity.value} requires a PointConfig"
            with pytest.raises(DomainError, match=missing):
                check_identity(identity, None)
    for identity, points, cls in (
        (IdentityId.GEN_DET, xy, "BilinearForm"),
        (IdentityId.GEN_BORCH, xy, "BilinearForm"),
        (IdentityId.GEN_SCHUR, pc, "SymmetricForm"),
        (IdentityId.GEN_MAIN, pc, "SymmetricForm"),
    ):
        with pytest.raises(DomainError, match=f"requires a {cls}, got NoneType"):
            check_identity(identity, points)
    with pytest.raises(DomainError, match="requires a SymmetricForm, got BilinearForm"):
        check_identity(IdentityId.GEN_SCHUR, pc, form=BilinearForm(0, 1, 1, 0))
    for identity in (IdentityId.LEMMA1, IdentityId.LEMMA2):
        with pytest.raises(DomainError, match="sample point z, got float"):
            check_identity(identity, pc, z=5.5)
        int_z = check_identity(identity, pc, z=11)
        assert int_z.passed
        assert int_z.params == check_identity(identity, pc, z=F(11)).params
    with pytest.raises(DomainError, match="unknown identity 'SCHUR1'"):
        check_identity("SCHUR1", pc)


XY = PointConfig([1, 2], [3, 4])
XS = PointConfig([1, 2, 3, 4])
G = SymmetricForm(1, 2, 3)
F_FORM = BilinearForm(1, 2, 3, 4)
RANK2 = gen_rank2(1, 2)


@pytest.mark.parametrize(
    "identity, pc, form, z, message",
    [
        ("SCHUR1", XS, G, None, "SCHUR1 takes no form; GEN_SCHUR takes one"),
        ("CAUCHY2", XY, F_FORM, None, "CAUCHY2 takes no form; GEN_DET takes one"),
        ("GEN_DET", XY, F_FORM, F(9), "GEN_DET takes no sample point z"),
        ("LEMMA1", XS, G, F(11), "LEMMA1 takes no form"),
        ("LEMMA2", XS, G, F(11), "LEMMA2 takes no form"),
        ("DEGENERATE_PF", XS, G, None, "DEGENERATE_PF takes no form"),
        ("SCHUR1", XY, None, None, "SCHUR1 takes no y points"),
        ("GEN_MAIN", XY, G, None, "GEN_MAIN takes no y points"),
        ("DEGENERATE_PF", XY, None, None, "DEGENERATE_PF takes no y points"),
        ("CARLITZ", XS, RANK2, None, "CARLITZ takes no PointConfig"),
    ],
    ids=[
        "SCHUR1-form",
        "CAUCHY2-form",
        "GEN_DET-z",
        "LEMMA1-form",
        "LEMMA2-form",
        "DEGENERATE_PF-form",
        "SCHUR1-ys",
        "GEN_MAIN-ys",
        "DEGENERATE_PF-ys",
        "CARLITZ-points",
    ],
)
def test_check_identity_refuses_what_it_does_not_read(identity, pc, form, z, message):
    with pytest.raises(DomainError, match=message):
        check_identity(IdentityId(identity), pc, form=form, z=z)


def test_points_in_a_quadratic_field_are_reported():
    xs = [QuadExt(F(k), F(1), F(2)) for k in range(1, 5)]
    pc = PointConfig(xs)
    assert pc.to_json() == {"xs": [f"{k}+1*sqrt(2)" for k in range(1, 5)]}
    rep = check_identity(IdentityId.SCHUR1, pc)
    assert rep.passed and rep.params["points"] == pc.to_json()
    rep = substitution_witness(pc, SymmetricForm(1, 2, 3))
    assert rep.passed and rep.params["points"] == pc.to_json()


def test_main1_with_repeated_point_both_sides_vanish():
    # two equal x values make two rows proportional; both sides are 0.
    # built directly since PointConfig insists on distinct points.
    xs = [F(1), F(1), F(2), F(3)]
    rows = [
        [
            (xs[i] - xs[j]) / (xs[i] + xs[j]) ** 2 if i != j else F(0)
            for j in range(4)
        ]
        for i in range(4)
    ]
    assert pf_elimination(SquareMatrix(rows)) == 0


def test_lemma1_minor_bookkeeping():
    # the (k, l) deletion used by the first lemma really removes those points
    from pfhaf.structured import build_hafnian_mat

    pc = PointConfig([F(1), F(2), F(3), F(4), F(5), F(6)])
    b = build_hafnian_mat(pc, SymmetricForm.from_name("x+y"))
    sub = minor(b, (2, 5))
    rebuilt = build_hafnian_mat(
        PointConfig([F(1), F(3), F(4), F(6)]), SymmetricForm.from_name("x+y")
    )
    assert sub == rebuilt


# -- the suite -------------------------------------------------------------


def test_make_instance_deterministic():
    a = make_instance(42, IdentityId.GEN_MAIN, 2, 0)
    b = make_instance(42, IdentityId.GEN_MAIN, 2, 0)
    assert a == b
    c = make_instance(42, IdentityId.GEN_MAIN, 2, 1)
    assert a != c


def test_run_suite_all_sixteen_ids():
    reports = run_suite(42, [1, 2], 2)
    assert len(reports) == 16 * 2 * 2
    assert {r.identity for r in reports} == {i.value for i in IdentityId}
    assert all(r.passed for r in reports)
    s = summarize(reports)
    assert s["total"] == 64 and s["failed"] == 0
    assert set(s["by_identity"]) == {i.value for i in IdentityId}


def test_run_suite_deterministic_modulo_timing():
    a = run_suite(9, [1, 2], 2, only={IdentityId.MAIN1, IdentityId.GEN_SCHUR})
    b = run_suite(9, [1, 2], 2, only={IdentityId.MAIN1, IdentityId.GEN_SCHUR})
    stripped_a = [(r.identity, r.params, r.lhs, r.rhs, r.passed) for r in a]
    stripped_b = [(r.identity, r.params, r.lhs, r.rhs, r.passed) for r in b]
    assert stripped_a == stripped_b


def test_run_suite_only_filter_and_zero_trials():
    only = {IdentityId.CARLITZ}
    reports = run_suite(1, [2, 3], 3, only=only)
    assert len(reports) == 6
    assert all(r.identity == "CARLITZ" for r in reports)
    # a sweep that checks nothing is refused, not reported as passed
    for sizes, trials in (([1, 2], 0), ([1, 2], -1), ([], 3), ([0, 1], 1), ([-2], 1)):
        with pytest.raises(DomainError):
            run_suite(1, sizes, trials, only={IdentityId.SCHUR1})


def test_run_suite_refuses_an_empty_only(monkeypatch):
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    with pytest.raises(DomainError, match="only selects no identity"):
        run_suite(1, [1], 1, only=set())


def test_run_suite_refuses_identity_names_in_only(monkeypatch):
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    with pytest.raises(DomainError, match="only takes IdentityId members, got 'MAIN1'"):
        run_suite(1, [1], 1, only=["MAIN1"])
    with pytest.raises(DomainError, match="got 'MAIN1'"):
        run_suite(1, [1], 1, only=[IdentityId.MAIN2, "MAIN1"])


@pytest.mark.parametrize(
    "only, message",
    [
        # the whole str is named, not one of its characters
        ("MAIN1", "only takes IdentityId members, got 'MAIN1'"),
        (IdentityId.MAIN1,
         "only must be an iterable of IdentityId members, got <IdentityId.MAIN1: 'MAIN1'>"),
        (5, "only must be an iterable of IdentityId members, got 5"),
        ({None}, "only takes IdentityId members, got None"),
    ],
)
def test_run_suite_refuses_an_only_that_is_not_a_collection_of_members(monkeypatch, only, message):
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    with pytest.raises(DomainError) as exc:
        run_suite(1, [1], 1, only=only)
    assert str(exc.value) == message


def test_run_suite_refuses_sizes_beyond_a_kernel_guard(monkeypatch):
    def no_cell(*args, **kw):
        raise AssertionError("a cell was computed")

    monkeypatch.setattr(verify, "check_identity", no_cell)
    with pytest.raises(SizeError) as exc:
        run_suite(1, [9, 12], 1, only={IdentityId.MAIN1})
    assert str(exc.value) == (
        "MAIN1 at size 12 is beyond the hf_recursive guard: "
        "MAIN1 supports sizes up to 11"
    )
    with pytest.raises(SizeError, match="BORCH1 at size 26 .* sizes up to 25"):
        run_suite(1, range(1, 27), 1)


def test_run_suite_refuses_an_endless_size_iterable_at_once(monkeypatch):
    # A size beyond every selected guard is refused as it is read, so
    # neither a range of 10^12 sizes nor an endless count is ever held.
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    start = time.perf_counter()
    with pytest.raises(SizeError) as exc:
        run_suite(1, range(1, 10**12), 1)
    assert str(exc.value) == (
        "BORCH1 at size 26 is beyond the perm_ryser guard: "
        "BORCH1 supports sizes up to 25"
    )
    with pytest.raises(SizeError, match="^MAIN1 at size 12 is beyond"):
        run_suite(1, itertools.count(1), 1, only={IdentityId.MAIN1, IdentityId.SCHUR1})
    assert time.perf_counter() - start < 5


def test_run_suite_caps_the_polynomial_identities_at_once(monkeypatch):
    # No selected identity has a kernel guard: the suite's cap, 25, is
    # refused as it is read, so 3 million sizes are never held.
    monkeypatch.setattr(verify, "check_identity", None)  # no cell may run
    monkeypatch.setattr(verify, "make_instance", None)
    start = time.perf_counter()
    with pytest.raises(SizeError) as exc:
        run_suite(1, range(1, 3_000_001), 1, only={IdentityId.SCHUR1})
    assert str(exc.value) == (
        "SCHUR1 at size 26 is beyond the suite's largest size: "
        "SCHUR1 supports sizes up to 25"
    )
    with pytest.raises(SizeError, match="^CAUCHY1 at size 26 is beyond the suite's"):
        run_suite(1, itertools.count(1), 1, only={IdentityId.SCHUR1, IdentityId.CAUCHY1})
    with pytest.raises(SizeError, match="^DEGENERATE_PF at size 30 is beyond the suite's"):
        run_suite(1, [3, 30], 1, only={IdentityId.DEGENERATE_PF})
    assert time.perf_counter() - start < 1


def test_run_suite_runs_a_polynomial_identity_at_the_cap():
    (report,) = run_suite(1, [25], 1, only={IdentityId.DEGENERATE_PF})
    assert report.passed and report.params["size"] == 25


# With hf_recursive's guard at 2n <= 6 and perm_ryser's at n <= 3: the
# kernel whose guard limits each identity, and the largest size it runs.
SMALL_GUARDS = {
    IdentityId.BORCH1: ("perm_ryser", 3),
    IdentityId.BORCH2: ("perm_ryser", 3),
    IdentityId.GEN_BORCH: ("perm_ryser", 3),
    IdentityId.CARLITZ: ("perm_ryser", 3),
    IdentityId.MAIN1: ("hf_recursive", 3),
    IdentityId.MAIN2: ("hf_recursive", 3),
    IdentityId.GEN_MAIN: ("hf_recursive", 3),
    IdentityId.LEMMA1: ("hf_recursive", 3),
    IdentityId.LEMMA2: ("hf_recursive", 4),  # it reads (2s - 2)-point minors
}


@pytest.mark.parametrize("identity", list(IdentityId), ids=lambda i: i.value)
def test_run_suite_size_limits_are_the_kernel_guards(monkeypatch, identity):
    monkeypatch.setattr(kernels, "HF_RECURSIVE_MAX", 6)
    monkeypatch.setattr(kernels, "PERM_RYSER_MAX", 3)
    kernel, largest = SMALL_GUARDS.get(identity, (None, 4))
    # the kernels accept the largest size ...
    assert summarize(run_suite(3, [largest], 1, only={identity}))["failed"] == 0
    if kernel is None:
        return
    # ... and one more is refused before any kernel sees it
    with pytest.raises(SizeError) as exc:
        run_suite(3, [largest + 1], 1, only={identity})
    assert str(exc.value) == (
        f"{identity.value} at size {largest + 1} is beyond the {kernel} guard: "
        f"{identity.value} supports sizes up to {largest}"
    )


def test_report_json_shape():
    rep = check_identity(IdentityId.SCHUR1, PointConfig([F(1), F(2)]))
    obj = rep.to_json()
    assert obj["identity"] == "SCHUR1"
    assert obj["pass"] is True
    assert obj["lhs"] == obj["rhs"] == "1/3"
