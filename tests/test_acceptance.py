"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with the measured statistics and
runtime.  Thresholds and time limits are asserted, not just reported.
Criteria 5 and 8 evaluate the same 100 keys, generated once per session.

Set RANKCRYPT_EXTENDED=1 to include the two larger twisted parameter rows
of criterion 7.
"""

import os
import time

import pytest

from rankcrypt import linalg as la
from rankcrypt.attack import (
    attack_extension,
    attack_overbeck,
    find_rank_n_idempotent,
)
from rankcrypt.codes import (
    Code,
    TwistParams,
    closure,
    dim_profile,
    dual,
    gabidulin,
    prw_parameters,
    qsum,
    random_code,
    sample_hooks,
    twisted_gabidulin,
)
from rankcrypt.decoder import brute_force_decode, decode, max_radius
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, decrypt, encrypt, keygen
from rankcrypt.linalg import MatFqm
from rankcrypt.qpoly import LinPoly
from rankcrypt.rng import derive_rng, make_rng

SEEDS = 100


def _report(capsys, line):
    with capsys.disabled():
        print("\n" + line)


def test_criterion_1_lambda_dimension_laws(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 32)

    gab_ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(1100, seed)
        k = int(rng.integers(1, 30))
        g = la.random_independent_vec(ctx, 30, rng)
        C = gabidulin(ctx, g, k)
        gab_ok += dim_profile(C, 6) == [min(30, k + i) for i in range(7)]

    rand_ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(1200, seed)
        C = random_code(ctx, 30, 5, rng)
        rand_ok += qsum(C, 1).k == 10

    tw_ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(1300, seed)
        g = la.random_independent_vec(ctx, 26, rng)
        tw = prw_parameters(ctx, 26, 18, 2, rng)
        C = twisted_gabidulin(ctx, g, 18, tw)
        prof = dim_profile(C, 2)
        tw_ok += prof[1] == 23 and prof[2] == 26

    dt = time.perf_counter() - t0
    ok = gab_ok == SEEDS and rand_ok >= 99 and tw_ok == SEEDS
    _report(
        capsys,
        f"criterion 1 (lambda dimension laws): {'PASS' if ok else 'FAIL'} "
        f"gabidulin {gab_ok}/100, random {rand_ok}/100, twisted {tw_ok}/100 "
        f"[{dt:.1f}s]",
    )
    assert gab_ok == SEEDS
    assert rand_ok >= 99
    assert tw_ok == SEEDS
    assert dt < 60


def test_criterion_2_decoder_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 8)
    agree = total = 0
    for t in (1, 2, 3):
        for seed in range(50):
            rng = derive_rng(2000 + t, seed)
            C = gabidulin(ctx, la.random_independent_vec(ctx, 8, rng), 2)
            msg = [ctx.random(rng) for _ in range(2)]
            cw = la.vec_mat(ctx, msg, C.gen)
            e = la.random_vec_rank(ctx, 8, t, rng)
            y = [ctx.add(a, b) for a, b in zip(cw, e)]
            fast = decode(C, y, 3)
            slow = brute_force_decode(C, y, 3)
            total += 1
            agree += fast.ok and slow.ok and fast.codeword == slow.codeword == cw
    dt = time.perf_counter() - t0
    ok = agree == total
    _report(
        capsys,
        f"criterion 2 (decoder oracle equivalence): {'PASS' if ok else 'FAIL'} "
        f"{agree}/{total} agreements [{dt:.1f}s]",
    )
    assert agree == total
    assert dt < 300


def test_criterion_3_gabidulin_round_trip(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 40)
    params = GptParams(ctx, n=36, k=16, lam=4, s=2, t=10)
    ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(3000, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(16)]
        ok += decrypt(sk, encrypt(pk, msg, rng)) == msg
    dt = time.perf_counter() - t0
    _report(
        capsys,
        f"criterion 3 (gabidulin round trip): {'PASS' if ok == SEEDS else 'FAIL'} "
        f"{ok}/100 [{dt:.1f}s]",
    )
    assert ok == SEEDS
    assert dt < 120


def test_criterion_4_twisted_round_trip(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 104)
    ok = radius_seen = None
    ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(4000, seed)
        g = la.random_independent_vec(ctx, 26, rng)
        tw = prw_parameters(ctx, 26, 18, 2, rng)
        C = twisted_gabidulin(ctx, g, 18, tw)
        t = max_radius(C)
        radius_seen = t
        msg = [ctx.random(rng) for _ in range(18)]
        cw = la.vec_mat(ctx, msg, C.gen)
        e = la.random_vec_rank(ctx, 26, t, rng)
        y = [ctx.add(a, b) for a, b in zip(cw, e)]
        res = decode(C, y, t)
        ok += res.ok and res.codeword == cw
    dt = time.perf_counter() - t0
    _report(
        capsys,
        f"criterion 4 (twisted round trip at t={radius_seen}): "
        f"{'PASS' if ok >= 95 else 'FAIL'} {ok}/100 observed rate [{dt:.1f}s]",
    )
    assert ok >= 95


@pytest.fixture(scope="session")
def low_rank_keys():
    """The 100 criterion-5 instances, shared with criterion 8."""
    ctx = field(2, 28)
    params = GptParams(ctx, n=24, k=12, lam=6, s=1)
    out = []
    for seed in range(SEEDS):
        rng = derive_rng(5000, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(12)]
        c = encrypt(pk, msg, rng)
        t0 = time.perf_counter()
        rep = attack_extension(pk, c, i_max=1)
        ovb = attack_overbeck(pk, c, rng, i=1)
        key_time = time.perf_counter() - t0
        out.append((sk, pk, msg, c, rep, ovb, key_time))
    return out


def test_criterion_5_extension_beats_classic(capsys, low_rank_keys):
    ext_ok = ovb_fails = 0
    worst = 0.0
    for sk, pk, msg, c, rep, ovb, key_time in low_rank_keys:
        ext_ok += rep.success and rep.recovered == msg and rep.i_used == 1
        ovb_fails += (not ovb.success) and ovb.failure.startswith(
            "distortion_not_eliminated"
        )
        worst = max(worst, key_time)
    ok = ext_ok >= 95 and ovb_fails == SEEDS and worst < 60
    _report(
        capsys,
        f"criterion 5 (extension attack, low-rank distortion): "
        f"{'PASS' if ok else 'FAIL'} extension {ext_ok}/100, "
        f"classic blocked {ovb_fails}/100, worst key {worst:.2f}s",
    )
    assert ext_ok >= 95
    assert ovb_fails == SEEDS
    assert worst < 60


def test_criterion_6_overbeck_classic_regime(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 24)
    params = GptParams(ctx, n=20, k=9, lam=2, s=1)
    ok = 0
    for seed in range(SEEDS):
        rng = derive_rng(6000, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(9)]
        c = encrypt(pk, msg, rng)
        rep = attack_overbeck(pk, c, rng, i=1)
        ok += rep.success and rep.recovered == msg
    dt = time.perf_counter() - t0
    _report(
        capsys,
        f"criterion 6 (classic overbeck regime): {'PASS' if ok >= 95 else 'FAIL'} "
        f"{ok}/100 [{dt:.1f}s]",
    )
    assert ok >= 95


def test_criterion_7_headline_twisted_break(capsys):
    t0 = time.perf_counter()
    ctx = field(2, 104)
    params = GptParams(ctx, n=26, k=18, lam=6, s=1, instantiation="twisted", ell=2)
    ok = 0
    worst = 0.0
    for seed in range(10):
        rng = derive_rng(7000, seed)
        t1 = time.perf_counter()
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(18)]
        c = encrypt(pk, msg, rng)
        rep = attack_extension(pk, c)
        key_time = time.perf_counter() - t1
        worst = max(worst, key_time)
        ok += rep.success and rep.recovered == msg
    dt = time.perf_counter() - t0
    passed = ok >= 9 and worst < 3600
    _report(
        capsys,
        f"criterion 7 (twisted-parameter break, m=104): "
        f"{'PASS' if passed else 'FAIL'} {ok}/10 keys, worst {worst:.1f}s "
        f"[{dt:.1f}s total]",
    )
    assert ok >= 9
    assert worst < 3600


@pytest.mark.skipif(
    os.environ.get("RANKCRYPT_EXTENDED") != "1",
    reason="extended twisted parameter rows; set RANKCRYPT_EXTENDED=1",
)
def test_criterion_7_extended_rows(capsys):
    # the two larger twisted parameter sets; delta is not integral for
    # either, so the twist exponents are supplied explicitly
    rows = [
        (132, 33, 21, 8, 1, (4, 8)),
        (192, 48, 32, 12, 2, (5, 10)),
    ]
    for m, n, k, lam, s, texp in rows:
        t0 = time.perf_counter()
        ctx = field(2, m)
        params = GptParams(ctx, n=n, k=k, lam=lam, s=s, instantiation="twisted", ell=2)
        ok = 0
        for seed in range(5):
            rng = derive_rng(7500 + m, seed)
            tw = TwistParams(
                sample_hooks(k, 2, rng), list(texp),
                [ctx.random_nonzero(rng) for _ in range(2)],
            )
            sk, pk = keygen(params, rng, tw=tw)
            msg = [ctx.random(rng) for _ in range(k)]
            c = encrypt(pk, msg, rng)
            rep = attack_extension(pk, c)
            ok += rep.success and rep.recovered == msg
        dt = time.perf_counter() - t0
        _report(
            capsys,
            f"criterion 7 extended (m={m}, n={n}, k={k}): "
            f"{'PASS' if ok >= 4 else 'FAIL'} {ok}/5 keys [{dt:.1f}s]",
        )
        assert ok >= 4


def test_criterion_8_stabilizer_structure(capsys, low_rank_keys):
    ctx = field(2, 28)
    dim2 = checked = exact = 0
    for sk, pk, msg, c, rep, ovb, key_time in low_rank_keys:
        # rep.stab_dim is dim Stab(Lambda_1(C_pub)): the fixture ran i_max=1
        dim2 += rep.stab_dim == 2
        if not rep.success:
            continue
        checked += 1
        F = rep.F
        n = pk.params.n
        good = (
            F @ F == F
            and la.rank(F) == n
            and Code(pk.G_pub @ F)
            == Code(MatFqm.zeros(ctx, 12, 6).hstack(sk.G_sec) @ sk.P)
        )
        exact += good
    ok = dim2 >= 90 and exact == checked and checked > 0
    _report(
        capsys,
        f"criterion 8 (stabilizer structure): {'PASS' if ok else 'FAIL'} "
        f"dim=2 in {dim2}/100, idempotent checks {exact}/{checked}",
    )
    assert dim2 >= 90
    assert checked > 0 and exact == checked


def test_criterion_9_property_suites(capsys):
    t0 = time.perf_counter()
    N = 1000
    fails = {}

    ctx = field(2, 8)
    rng = make_rng(9100)
    bad = 0
    for _ in range(N):
        F, G, H = (LinPoly.random(ctx, int(rng.integers(0, 3)), rng) for _ in range(3))
        x = ctx.random(rng)
        bad += not (
            ((F * G) * H).coeffs == (F * (G * H)).coeffs
            and ((F + G) * H).coeffs == (F * H + G * H).coeffs
            and (F * G).evaluate(x) == F.evaluate(G.evaluate(x))
        )
    fails["skew ring"] = bad

    ctx = field(2, 16)
    rng = make_rng(9200)
    bad = 0
    for _ in range(N):
        a, b = ctx.random(rng), ctx.random(rng)
        i = int(rng.integers(0, 16))
        bad += not (
            ctx.frob(ctx.add(a, b), i) == ctx.add(ctx.frob(a, i), ctx.frob(b, i))
            and ctx.frob(ctx.mul(a, b), i) == ctx.mul(ctx.frob(a, i), ctx.frob(b, i))
        )
    fails["frobenius hom"] = bad

    ctx = field(2, 12)
    rng = make_rng(9300)
    bad = 0
    for _ in range(N):
        x = [ctx.random(rng) for _ in range(10)]
        P = la.random_gl(2, 10, rng)
        bad += la.rank_fq(ctx, la.vec_mat(ctx, x, P)) != la.rank_fq(ctx, x)
    fails["rank isometry"] = bad

    ctx = field(2, 10)
    rng = make_rng(9400)
    bad = 0
    for _ in range(N):
        C = random_code(ctx, 10, 4, rng)
        bad += dual(dual(C)) != C
    fails["dual involution"] = bad

    ctx = field(2, 20)
    rng = make_rng(9500)
    bad = 0
    for it in range(N):
        if it % 2 == 0:
            C = random_code(ctx, 10, 3, rng)
            s = 1 + (it // 2) % 2
            Cb = closure(C, s)
            bad += qsum(Cb, s) != qsum(C, s)
        else:
            g = la.random_independent_vec(ctx, 10, rng)
            C = gabidulin(ctx, g, 4)
            i = 1 + it % 5
            bad += closure(C, i) != C
    fails["closure identities"] = bad

    dt = time.perf_counter() - t0
    total_bad = sum(fails.values())
    detail = ", ".join(f"{k} {N - v}/{N}" for k, v in fails.items())
    _report(
        capsys,
        f"criterion 9 (property suites): {'PASS' if total_bad == 0 else 'FAIL'} "
        f"{detail} [{dt:.1f}s]",
    )
    assert total_bad == 0
