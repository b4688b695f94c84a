"""Sequence-free decoder and the exhaustive oracle."""

import pytest

from rankcrypt import linalg as la
from rankcrypt.attack import attack_extension, attack_overbeck, stabilizer
from rankcrypt.codes import (
    Code,
    code_and_transform,
    gabidulin,
    prw_parameters,
    qsum,
    random_code,
    twisted_gabidulin,
)
from rankcrypt.decoder import (
    _error_over_support,
    _subspace_bases,
    brute_force_decode,
    decode,
    gaussian_binomial,
    max_radius,
    prepare,
)
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, decrypt, encrypt, keygen, make_plan
from rankcrypt.linalg import MatFqm
from rankcrypt.rng import derive_rng, make_rng


def _planted(ctx, C, t, rng):
    msg = [ctx.random(rng) for _ in range(C.k)]
    cw = la.vec_mat(ctx, msg, C.gen)
    e = la.random_vec_rank(ctx, C.n, t, rng)
    y = [ctx.add(a, b) for a, b in zip(cw, e)]
    return cw, e, y


def test_zero_error_decodes():
    ctx = field(2, 10)
    rng = make_rng(301)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 10, rng), 4)
    cw, _, _ = _planted(ctx, C, 0, rng)
    res = decode(C, cw, 3)
    assert res.ok and res.codeword == cw and all(v == 0 for v in res.error)


def test_gabidulin_roundtrip_at_half_distance():
    ctx = field(2, 20)
    for seed in range(30):
        rng = derive_rng(302, seed)
        C = gabidulin(ctx, la.random_independent_vec(ctx, 16, rng), 6)
        t = max_radius(C)
        assert t == (16 - 6) // 2
        cw, e, y = _planted(ctx, C, t, rng)
        res = decode(C, y, t)
        assert res.ok and res.codeword == cw and res.error == list(e)


def test_decoded_error_rank_bounded():
    ctx = field(2, 16)
    rng = make_rng(303)
    for _ in range(20):
        C = gabidulin(ctx, la.random_independent_vec(ctx, 12, rng), 4)
        _, _, y = _planted(ctx, C, 3, rng)
        res = decode(C, y, 4)
        if res.ok:
            assert la.rank_fq(ctx, res.error) <= 4


def test_max_radius_contract():
    ctx = field(2, 24)
    rng = make_rng(304)
    g = la.random_independent_vec(ctx, 20, rng)
    assert max_radius(gabidulin(ctx, g, 9)) == 5
    assert max_radius(gabidulin(ctx, g, 10)) == 5
    # full space corrects nothing
    full = Code(MatFqm.identity(ctx, 6))
    assert max_radius(full) == 0
    # twisted: at least the closed-form floor
    ctx2 = field(2, 32)
    rng = make_rng(305)
    g = la.random_independent_vec(ctx2, 26, rng)
    tw = prw_parameters(ctx2, 26, 18, 2, rng)
    C = twisted_gabidulin(ctx2, g, 18, tw)
    assert max_radius(C) >= (26 - 18 - 2) // 4
    assert max_radius(C) == 1


def test_decode_requires_positive_radius():
    ctx = field(2, 8)
    rng = make_rng(306)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 6, rng), 2)
    with pytest.raises(ValueError):
        decode(C, [0] * 6, 0)


def test_failure_statuses():
    ctx = field(2, 12)
    rng = make_rng(307)
    # Lambda_3 of a random [8,3] saturates: step 1 is vacuous, step 2 must
    # reject the junk annihilator
    C = random_code(ctx, 8, 3, rng)
    _, _, y = _planted(ctx, C, 3, rng)
    res = decode(C, y, 3)
    assert not res.ok and res.status == "no_error_solution"
    # far-away word at t=1: the step-1 system itself has only P = 0
    seen = set()
    for seed in range(20):
        rng = derive_rng(317, seed)
        C = random_code(ctx, 8, 3, rng)
        y = [ctx.random(rng) for _ in range(8)]
        res = decode(C, y, 1)
        if not res.ok:
            seen.add(res.status)
    assert "no_annihilator" in seen


def test_beyond_radius_reports_failure_not_junk():
    ctx = field(2, 16)
    failures = 0
    for seed in range(20):
        rng = derive_rng(308, seed)
        C = gabidulin(ctx, la.random_independent_vec(ctx, 12, rng), 4)
        cw, e, y = _planted(ctx, C, 6, rng)  # radius is 4
        res = decode(C, y, 4)
        failures += not res.ok
        if res.ok:
            # whatever came back must still be a bounded-rank explanation
            assert la.rank_fq(ctx, res.error) <= 4
            assert C.contains(res.codeword)
    assert failures >= 15


def test_agreement_with_brute_force():
    ctx = field(2, 8)
    for seed in range(15):
        rng = derive_rng(309, seed)
        C = gabidulin(ctx, la.random_independent_vec(ctx, 8, rng), 2)
        t = int(rng.integers(1, 4))
        cw, e, y = _planted(ctx, C, t, rng)
        fast = decode(C, y, 3)
        slow = brute_force_decode(C, y, 3)
        assert fast.ok and slow.ok
        assert fast.codeword == slow.codeword == cw


def test_brute_force_zero_syndrome_shortcut():
    ctx = field(2, 8)
    rng = make_rng(310)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 8, rng), 2)
    cw, _, _ = _planted(ctx, C, 0, rng)
    res = brute_force_decode(C, cw, 3)
    assert res.ok and res.codeword == cw and all(v == 0 for v in res.error)


def test_brute_force_work_gate():
    ctx = field(2, 40)
    rng = make_rng(311)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 20, rng), 8)
    with pytest.raises(ValueError):
        brute_force_decode(C, [0] * 20, 6)


def test_gaussian_binomial_frozen(derived):
    for m, r, q, want in derived["gaussian_binomials"]:
        assert gaussian_binomial(m, r, q) == want


def test_subspace_bases_complete_and_canonical(derived):
    table = {(m, r, q): v for m, r, q, v in derived["gaussian_binomials"]}
    for (m, r, q), want in list(table.items())[:3]:
        bases = _subspace_bases(q, m, r)
        assert len(bases) == want
        spans = set()
        for rows in bases:
            assert len(rows) == r
            spans.add(tuple(sorted(rows)))
        assert len(spans) == want  # all distinct


def _combine(ctx, coeffs, kappa):
    """sum_rho coeffs[rho] kappa[rho] over F_{q^m}."""
    acc = 0
    for a, kp in zip(coeffs, kappa):
        acc = ctx.add(acc, ctx.mul(a, kp))
    return acc


def _error_over_support_expanded(ctx, H, syndrome, kappa, n):
    """Step 2 through the F_q system expanded from field products and put
    in RREF: the reference for the digit-plane system and its solve."""
    r = len(kappa)
    rows = [
        [ctx.mul(a, kp) for a in hrow for kp in kappa] + [s] for hrow, s in zip(H.data, syndrome)
    ]
    R, _, pivots = la.rref(la.expand_fq_system(MatFqm(ctx, rows, n * r + 1)))
    if n * r in pivots:
        return None
    x = [0] * (n * r)
    for row, p in zip(R.data, pivots):
        x[p] = row[n * r]
    return [_combine(ctx, x[c * r : (c + 1) * r], kappa) for c in range(n)]


@pytest.mark.parametrize("m", [16, 28, 40])
def test_packed_step_two_matches_expanded_system(m):
    ctx = field(2, m)
    n, k, t = 14, 6, 4
    outcomes = set()
    for seed in range(12):
        rng = derive_rng(313, m * 100 + seed)
        # a parity check with an identity block, like right_kernel gives,
        # or a dense random one
        C = random_code(ctx, n, k, rng)
        H = la.right_kernel(C.gen) if seed % 2 else MatFqm.random(ctx, n - k, n, rng)
        r = 1 + seed % t
        kappa = la.random_independent_vec(ctx, r, rng)
        if seed % 3:
            coeffs = [[int(rng.integers(0, 2)) for _ in range(r)] for _ in range(n)]
            e = [_combine(ctx, cs, kappa) for cs in coeffs]
            syndrome = la.mat_vec(ctx, H, e)
        else:
            syndrome = [ctx.random(rng) for _ in range(n - k)]
        got = _error_over_support(ctx, H, syndrome, kappa, n)
        assert got == _error_over_support_expanded(ctx, H, syndrome, kappa, n)
        if got is not None:
            assert la.mat_vec(ctx, H, got) == syndrome
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_no_field_arithmetic_in_q2_products_and_step_two(monkeypatch):
    # the golden low-rank row; Overbeck needs i = 5 there (s (i + 1) >= lambda)
    params = GptParams(field(2, 28), n=24, k=12, lam=6, s=1)
    _check_no_field_arithmetic(params, 1, 5, make_rng(315), monkeypatch)


def test_no_field_arithmetic_at_odd_q(monkeypatch):
    params = GptParams(field(3, 12), n=10, k=4, lam=2, s=1)
    # the probes of this code leave extra kernel candidates, so its
    # stabilizer adds witness rows too
    witness = random_code(params.ctx, 12, 6, make_rng(15))
    _check_no_field_arithmetic(params, 2, 1, make_rng(316), monkeypatch, witness)


def _check_no_field_arithmetic(params, key_seed, i_overbeck, rng, monkeypatch, witness=None):
    # products, eliminations, q-sums, the decryption plan, both decoder steps,
    # the stabilizer of a code in canonical form (with its witness rounds,
    # when a witness code is given), and so a whole Gabidulin key,
    # encryption, decryption and both attacks, run on coefficient digit
    # planes: no mul, mul_row, mac_row or frob_row (ctx.inv is allowed)
    ctx = params.ctx
    if witness is not None:
        want_witness = stabilizer(witness)
        probe_rows = -(-witness.n * witness.n // ctx.m) * ctx.m
        assert want_witness.rows_fed > probe_rows
    q, n, k = ctx.q, 12, 5
    C = random_code(ctx, n, k, rng)
    H = la.right_kernel(C.gen)
    kappa = la.random_independent_vec(ctx, 3, rng)
    e = [_combine(ctx, rng.integers(0, q, 3).tolist(), kappa) for _ in range(n)]
    syndrome = la.mat_vec(ctx, H, e)
    # kappa = [1] confines e to F_q^n, whose syndromes H e^T fill at most
    # n of the (n-k) m dimensions: a random syndrome is inconsistent
    wrong = [ctx.random(rng) for _ in range(n - k)]
    assert _error_over_support_expanded(ctx, H, wrong, [1], n) is None
    want = _error_over_support_expanded(ctx, H, syndrome, kappa, n)
    want_stab = stabilizer(C).basis
    # a Gabidulin code to decode and decrypt through, and what to expect
    gab = gabidulin(ctx, la.random_independent_vec(ctx, n, rng), k)
    t = max_radius(gab)
    S = la._resample(lambda: MatFqm.random(ctx, k, k, rng), lambda M: la.rank(M) == k)
    cw, _, y = _planted(ctx, gab, t, rng)
    want_decode = prepare(gab, t).decode(y)
    M = MatFqm.random(ctx, 4, 7, rng)
    XM = MatFqm.random(ctx, 2, 4, rng) @ M  # X M = XM is consistent
    want_linalg = (la.rref(M), la.right_kernel(M).data, la.solve_left(M, XM), la.rank(M))
    want_sums = [qsum(gab, i) for i in range(t + 1)]
    calls = []

    def counting(name, method):
        def wrapper(self, *args):
            calls.append(name)
            return method(self, *args)

        return wrapper

    for name in ("mul", "mul_row", "mac_row", "frob_row"):
        monkeypatch.setattr(type(ctx), name, counting(name, getattr(type(ctx), name)))
    got_linalg = (la.rref(M), la.right_kernel(M).data, la.solve_left(M, XM), la.rank(M))
    assert got_linalg == want_linalg and want_linalg[2] is not None
    assert la.solve_left(M, MatFqm.identity(ctx, 7)) is None  # 4 rows cannot span F^7
    assert Code(gab.gen) == gab and Code(S @ gab.gen) == gab
    assert gab.contains(cw) and not gab.contains(y)
    assert [qsum(gab, i) for i in range(t + 1)] == want_sums
    assert max_radius(gab) == t
    prepared = prepare(gab, t)
    assert prepared.decode(y) == want_decode and want_decode.codeword == cw
    _, readout = code_and_transform(S @ gab.gen)
    plan = make_plan(la.MatFq.identity(q, n), S @ gab.gen, prepared, readout)
    msg = plan.decrypt(y)
    assert la.vec_mat(ctx, msg, S @ gab.gen) == cw
    A, B = MatFqm.random(ctx, 4, 6, rng), MatFqm.random(ctx, 6, 3, rng)
    A @ B
    A @ la.MatFq.identity(q, 6)
    la.vec_mat(ctx, A.data[0], B)
    la.mat_vec(ctx, A, B.transpose().data[0])
    assert _error_over_support(ctx, H, syndrome, kappa, n) == want
    assert _error_over_support(ctx, H, wrong, [1], n) is None
    assert stabilizer(C).basis == want_stab
    if witness is not None:
        got = stabilizer(witness)
        assert (got.basis, got.rows_fed) == (want_witness.basis, want_witness.rows_fed)
    key_rng = derive_rng(9100, key_seed)
    sk, pk = keygen(params, key_rng)
    msg = [ctx.random(key_rng) for _ in range(params.k)]
    c = encrypt(pk, msg, key_rng)
    assert decrypt(sk, c) == msg
    for rep in (attack_extension(pk, c), attack_overbeck(pk, c, key_rng, i_overbeck)):
        assert rep.success and rep.recovered == msg
    assert calls == []


def test_prepared_code_decodes_like_decode():
    ctx = field(2, 20)
    rng = make_rng(314)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 14, rng), 6)
    P = prepare(C, 4)
    for t in (2, 4, 5):
        for _ in range(3):
            _, _, y = _planted(ctx, C, t, rng)
            assert P.decode(y) == decode(C, y, 4)
    with pytest.raises(ValueError):
        prepare(C, 0)
    with pytest.raises(ValueError):
        P.decode([0] * 13)
