"""GPT scheme: keygen invariants, round trips, failure propagation, the
per-key decryption plan."""

import dataclasses

import pytest

from rankcrypt import linalg as la
from rankcrypt import serialize as ser
from rankcrypt.codes import Code, moore_matrix, qsum
from rankcrypt.decoder import prepare
from rankcrypt.fields import field
from rankcrypt.attack import attack_extension
from rankcrypt.gpt import DecryptError, GptParams, decrypt, encrypt, keygen
from rankcrypt.linalg import MatFqm
from rankcrypt.rng import derive_rng, make_rng


def _gab_params(ctx):
    return GptParams(ctx, n=20, k=8, lam=4, s=2)


def test_keygen_invariants():
    ctx = field(2, 24)
    for seed in range(10):
        rng = derive_rng(401, seed)
        sk, pk = keygen(_gab_params(ctx), rng)
        assert la.rank(sk.X) == 2
        assert la.rank_fq(ctx, sk.g) == 20
        assert sk.P @ sk.P.inverse() == type(sk.P).identity(2, 24)
        assert la.rank(pk.G_pub) == 8
        assert pk.G_pub == (sk.S @ sk.X.hstack(sk.G_sec)) @ sk.P
        # t resolved to the measured radius
        assert pk.params.t == (20 - 8) // 2


def test_public_row_space_independent_of_s():
    # S is invertible, so G_pub spans the row space of its maskless form
    ctx = field(2, 24)
    for seed in range(2):
        sk, pk = keygen(_gab_params(ctx), derive_rng(402, seed))
        assert Code(pk.G_pub) == Code(sk.X.hstack(sk.G_sec) @ sk.P)


def test_roundtrip_gabidulin():
    ctx = field(2, 24)
    params = _gab_params(ctx)
    for seed in range(25):
        rng = derive_rng(403, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(8)]
        assert decrypt(sk, encrypt(pk, msg, rng)) == msg


def test_roundtrip_twisted():
    ctx = field(2, 32)
    params = GptParams(ctx, n=26, k=18, lam=3, s=1, instantiation="twisted", ell=2)
    ok = 0
    for seed in range(15):
        rng = derive_rng(404, seed)
        sk, pk = keygen(params, rng)
        assert pk.params.t == 1
        msg = [ctx.random(rng) for _ in range(18)]
        try:
            ok += decrypt(sk, encrypt(pk, msg, rng)) == msg
        except DecryptError:
            pass  # closure failures are reported, not hidden
    assert ok >= 14


def test_error_rank_is_exact():
    ctx = field(2, 24)
    params = _gab_params(ctx)
    for seed in range(30):
        rng = derive_rng(405, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(8)]
        c = encrypt(pk, msg, rng)
        resid = [ctx.sub(a, b) for a, b in zip(c, la.vec_mat(ctx, msg, pk.G_pub))]
        assert la.rank_fq(ctx, resid) == pk.params.t


def test_zero_message_zero_error():
    ctx = field(2, 24)
    rng = make_rng(406)
    sk, pk = keygen(_gab_params(ctx), rng)
    c = la.vec_mat(ctx, [0] * 8, pk.G_pub)  # t=0 variant: c in C_pub
    assert decrypt(sk, c) == [0] * 8


def test_lambda_structure_with_secret_access():
    # Lambda_i(C_pub) = rowspace (Lambda_i(X) | Lambda_i(G_sec)) P
    ctx = field(2, 24)
    rng = make_rng(407)
    sk, pk = keygen(_gab_params(ctx), rng)
    i = 1
    L = qsum(Code(pk.G_pub), i)
    X1 = sk.X.vstack(sk.X.frob(1))
    G1 = sk.G_sec.vstack(sk.G_sec.frob(1))
    want = Code(X1.hstack(G1) @ sk.P)
    assert L == want
    # dimension bound: k+1 + min(2s, lam)
    assert L.k <= 8 + 1 + min(2 * 2, 4)


def test_explicit_t_validation():
    ctx = field(2, 24)
    params = GptParams(ctx, n=20, k=8, lam=4, s=2, t=7)  # radius is 6
    with pytest.raises(ValueError):
        keygen(params, make_rng(408))


def test_message_length_checked():
    ctx = field(2, 24)
    sk, pk = keygen(_gab_params(ctx), make_rng(409))
    with pytest.raises(ValueError):
        encrypt(pk, [0] * 7, make_rng(1))


def test_decrypt_failure_propagates():
    ctx = field(2, 24)
    rng = make_rng(410)
    sk, pk = keygen(_gab_params(ctx), rng)
    msg = [ctx.random(rng) for _ in range(8)]
    c = la.vec_mat(ctx, msg, pk.G_pub)
    # bury the codeword under an error far past the radius
    e = la.random_vec_rank(ctx, 24, 12, rng)
    y = [ctx.add(a, b) for a, b in zip(c, e)]
    with pytest.raises(DecryptError):
        decrypt(sk, y)


def test_params_validation():
    ctx = field(2, 24)
    with pytest.raises(ValueError):
        GptParams(ctx, n=25, k=8, lam=4, s=2).validate()  # n > m
    with pytest.raises(ValueError):
        GptParams(ctx, n=20, k=8, lam=4, s=5).validate()  # s > lambda
    with pytest.raises(ValueError):
        GptParams(ctx, n=20, k=8, lam=4, s=0).validate()
    with pytest.raises(ValueError):
        GptParams(ctx, n=20, k=20, lam=4, s=2).validate()  # k = n


def _outcome(sk, c):
    try:
        return decrypt(sk, c)
    except DecryptError as ex:
        return ex.status


@pytest.mark.parametrize(
    "q, m, n, k, lam, s, inst, ell",
    [
        (2, 24, 20, 8, 4, 2, "gabidulin", 0),
        (2, 32, 26, 18, 3, 1, "twisted", 2),
        (3, 12, 10, 4, 2, 1, "gabidulin", 0),
    ],
    ids=["q2-gabidulin", "q2-twisted", "q3"],
)
def test_plan_reuse_matches_fresh_key(q, m, n, k, lam, s, inst, ell):
    ctx = field(q, m)
    params = GptParams(ctx, n=n, k=k, lam=lam, s=s, instantiation=inst, ell=ell)
    rng = make_rng(411)
    sk, pk = keygen(params, rng)
    blob = ser.secret_key_to_json(sk)
    msgs = [[ctx.random(rng) for _ in range(k)] for _ in range(8)]
    cts = [encrypt(pk, msg, rng) for msg in msgs]
    warm = [_outcome(sk, c) for c in cts]  # the first call builds the plan
    assert "plan" in vars(sk)
    for c, got in zip(cts, warm):
        fresh = ser.secret_key_from_json(blob)
        assert "plan" not in vars(fresh)
        assert _outcome(fresh, c) == got
    assert sum(got == msg for got, msg in zip(warm, msgs)) >= 7


def test_plan_keeps_rejecting_errors_above_radius():
    ctx = field(2, 24)
    rng = make_rng(412)
    sk, pk = keygen(_gab_params(ctx), rng)
    msg = [ctx.random(rng) for _ in range(8)]
    assert decrypt(sk, encrypt(pk, msg, rng)) == msg
    assert "plan" in vars(sk)
    e = la.random_vec_rank(ctx, 24, 12, rng)
    y = [ctx.add(a, b) for a, b in zip(la.vec_mat(ctx, msg, pk.G_pub), e)]
    with pytest.raises(DecryptError):
        decrypt(sk, y)
    assert decrypt(sk, encrypt(pk, msg, rng)) == msg


def test_plan_is_not_serialized_and_key_is_frozen():
    ctx = field(2, 24)
    rng = make_rng(413)
    sk, pk = keygen(_gab_params(ctx), rng)
    before = ser.secret_key_to_json(sk)
    msg = [ctx.random(rng) for _ in range(8)]
    assert decrypt(sk, encrypt(pk, msg, rng)) == msg
    assert "plan" in vars(sk)
    assert ser.secret_key_to_json(sk) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        sk.S = sk.S


def test_plan_readout_matches_solve_left():
    # the plan's message readout plus re-encoding check answers exactly
    # what solve_left(S G_sec, w) answers, for codewords and for junk
    ctx = field(2, 24)
    rng = make_rng(414)
    sk, _ = keygen(_gab_params(ctx), rng)
    plan = sk.plan
    assert plan.G == sk.S @ sk.G_sec
    for trial in range(10):
        if trial % 2:
            w = [ctx.random(rng) for _ in range(20)]
        else:
            w = la.vec_mat(ctx, [ctx.random(rng) for _ in range(8)], plan.G)
        sol = la.solve_left(plan.G, MatFqm(ctx, [w]))
        msg = la.vec_mat(ctx, [w[j] for j in plan.cols], plan.readout)
        if sol is None:
            assert la.vec_mat(ctx, msg, plan.G) != w
        else:
            assert msg == sol.data[0] and la.vec_mat(ctx, msg, plan.G) == w


def test_decrypt_refuses_codeword_outside_secret_code():
    # swap the plan's decoder for one of the [20, 9] Gabidulin code on the
    # same g, which contains the secret [20, 8] code: a word of the larger
    # code decodes, but no message encrypts to it
    ctx = field(2, 24)
    rng = make_rng(415)
    sk, _ = keygen(_gab_params(ctx), rng)
    larger = prepare(Code(moore_matrix(ctx, sk.g, 9)), 1)
    sk.__dict__["plan"] = dataclasses.replace(sk.plan, code=larger)
    w = la.vec_mat(ctx, [0] * 8 + [1], larger.C.gen)
    c = la.vec_mat(ctx, [ctx.random(rng) for _ in range(4)] + w, sk.P)
    with pytest.raises(DecryptError) as ex:
        decrypt(sk, c)
    assert ex.value.status == "codeword_outside_secret_code"


def test_keygen_draws_the_same_s_as_the_rank_rule():
    # keygen accepts S when [S G_sec | I_k] has rank k; since G_sec has
    # rank k that is rank(S) = k, so it draws exactly the S of the rank rule
    # (random_independent_vec, then S resampled until rank(S) = k).
    # Over F_16, 2 x 2 draws are singular often enough to exercise it.
    ctx = field(2, 4)
    params = GptParams(ctx, n=4, k=2, lam=1, s=1)
    singular_first = 0
    for seed in range(50):
        rng = make_rng(seed)
        la.random_independent_vec(ctx, 4, rng)
        draws = [MatFqm.random(ctx, 2, 2, rng)]
        while la.rank(draws[-1]) < 2:
            draws.append(MatFqm.random(ctx, 2, 2, rng))
        singular_first += len(draws) > 1
        sk, _ = keygen(params, make_rng(seed))
        assert sk.S == draws[-1]
    assert singular_first >= 1


@pytest.mark.parametrize(
    "q, m, n, k, lam, s, inst, ell, t",
    [
        (2, 24, 20, 8, 4, 2, "gabidulin", 0, None),
        (2, 24, 20, 8, 4, 2, "gabidulin", 0, 3),  # below the radius 6
        (2, 32, 26, 18, 3, 1, "twisted", 2, None),
        (3, 12, 10, 4, 2, 1, "gabidulin", 0, None),
    ],
    ids=["q2", "q2-t-below-radius", "q2-twisted", "q3"],
)
def test_keygen_handover_matches_a_reloaded_key(q, m, n, k, lam, s, inst, ell, t):
    # keygen hands S G_sec, its code, the readout and Lambda_t to the key;
    # a key read back from JSON builds them itself, to the same plan
    ctx = field(q, m)
    params = GptParams(ctx, n=n, k=k, lam=lam, s=s, instantiation=inst, ell=ell, t=t)
    sk, _ = keygen(params, make_rng(416))
    assert "_secret" in vars(sk)
    fresh = ser.secret_key_from_json(ser.secret_key_to_json(sk))
    assert fresh == sk  # twisted keys too: TwistParams compares (h, t, eta)
    copy = dataclasses.replace(sk)  # a new key: its own cache, built anew
    assert "_secret" not in vars(copy) and copy == sk
    a, b = sk.plan, fresh.plan
    assert (a.A, a.G, a.cols, a.readout) == (b.A, b.G, b.cols, b.readout)
    assert (a.code.H, a.code.Ht, a.code.t) == (b.code.H, b.code.Ht, b.code.t)
    assert a.code.t == (t or sk.params.t)
    block = MatFqm(ctx, [[row[j] for j in a.cols] for row in a.G.data], k)
    assert a.readout == la.solve_left(block, MatFqm.identity(ctx, k))


def test_elimination_counts(monkeypatch):
    # keygen's elimination of [S G_sec | I_k] gives the secret code and the
    # readout, and its radius walk Lambda_t, so the first decrypt rebuilds
    # none of them; each attack plan takes its code and readout from one
    # elimination.  Counted, not timed: F_{q^m} eliminations (_fqm_rref).
    # Rebuilding Code(G_sec) and Lambda_t in the first decrypt, a separate
    # rank(S) and a solve_left for each readout would raise them to 23 and 16.
    ctx = field(2, 28)
    params = GptParams(ctx, n=24, k=12, lam=6, s=1)
    calls = []
    fqm_rref = la._fqm_rref

    def counting(*args):
        calls.append(1)
        return fqm_rref(*args)

    monkeypatch.setattr(la, "_fqm_rref", counting)
    rng = derive_rng(500, 1)
    sk, pk = keygen(params, rng)
    msg = [ctx.random(rng) for _ in range(12)]
    c = encrypt(pk, msg, rng)
    assert decrypt(sk, c) == msg
    key_calls, calls[:] = len(calls), []
    rep = attack_extension(pk, c, i_max=1)
    assert rep.success and rep.recovered == msg
    assert (key_calls, len(calls)) == (13, 13)
