"""Stabilizer algebras, idempotent extraction, and both key-recovery attacks."""

import time

import pytest

from rankcrypt import linalg as la
from rankcrypt.attack import (
    AttackError,
    StabilizerAlgebra,
    _decode_and_recover,
    attack_extension,
    attack_overbeck,
    find_rank_n_idempotent,
    stabilizer,
)
from rankcrypt.codes import Code, code_and_transform, gabidulin, qsum, random_code
from rankcrypt.decoder import prepare
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, decrypt, encrypt, keygen, make_plan
from rankcrypt.linalg import MatFq, MatFqm
from rankcrypt.rng import derive_rng, make_rng


def _low_rank_instance(seed):
    # the regime where the distortion hides from the classic attack
    ctx = field(2, 28)
    params = GptParams(ctx, n=24, k=12, lam=6, s=1)
    rng = derive_rng(500, seed)
    sk, pk = keygen(params, rng)
    msg = [ctx.random(rng) for _ in range(12)]
    c = encrypt(pk, msg, rng)
    return ctx, params, sk, pk, msg, c, rng


@pytest.mark.parametrize("q", [2, 3])
def test_stabilizer_invariants(q):
    # the odd-q row is smaller: F_3 arithmetic is slower
    ctx, n, k = (field(2, 16), 12, 5) if q == 2 else (field(3, 8), 8, 3)
    rng = make_rng(501)
    C = random_code(ctx, n, k, rng)
    alg = stabilizer(C)
    G = C.gen
    H = la.right_kernel(G)
    for M in alg.basis:
        assert ((G @ M) @ H.transpose()).is_zero()
        # CM stays inside C row by row
        img = G @ M
        for row in img.data:
            assert C.contains(row)


def test_stabilizer_of_random_code_is_trivial():
    # almost any code has only the scalars
    ctx = field(2, 16)
    hits = 0
    for seed in range(10):
        rng = derive_rng(502, seed)
        C = random_code(ctx, 12, 5, rng)
        alg = stabilizer(C)
        hits += alg.dim == 1
        if alg.dim == 1:
            # the span of the single element contains I
            B = alg.basis[0]
            assert B == MatFq.identity(2, 12) or la.rank(B) == 12
    assert hits == 10


def test_stabilizer_contains_identity_and_closed_under_product():
    ctx, params, sk, pk, msg, c, rng = _low_rank_instance(0)
    L = qsum(Code(pk.G_pub), 1)
    alg = stabilizer(L)
    N = alg.n_total
    # the attack reports this dimension (acceptance criterion 8 reads it)
    assert attack_extension(pk, c, i_max=1).stab_dim == alg.dim
    # identity in the F_q-span of the basis
    flat = MatFq(2, [[v for row in M.data for v in row] for M in alg.basis], N * N)
    I_flat = MatFq(2, [[v for row in MatFq.identity(2, N).data for v in row]], N * N)
    span, rank, _ = la.rref(flat)
    aug, rank2, _ = la.rref(flat.vstack(I_flat))
    assert rank2 == rank
    # closed under products on basis pairs
    for A in alg.basis:
        for B in alg.basis:
            P_flat = MatFq(2, [[v for row in (A @ B).data for v in row]], N * N)
            _, r3, _ = la.rref(flat.vstack(P_flat))
            assert r3 == rank


@pytest.mark.parametrize("q", [2, 3])
def test_stabilizer_of_full_space(q):
    # no constraints: the basis is E_uv in (u, v) order
    ctx = field(q, 8)
    full = Code(MatFqm.identity(ctx, 4))
    alg = stabilizer(full)
    assert alg.dim == 16
    for idx, M in enumerate(alg.basis):
        E = MatFq.zeros(q, 4, 4)
        E.data[idx // 4][idx % 4] = 1
        assert M == E


def test_planted_idempotents_in_stabilizer():
    ctx, params, sk, pk, msg, c, rng = _low_rank_instance(1)
    N = params.n + params.lam
    Pinv = sk.P.inverse()
    blocks = MatFq.zeros(2, N, N)
    for i in range(params.lam, N):
        blocks.data[i][i] = 1
    E2 = (Pinv @ blocks) @ sk.P
    E1 = MatFq.identity(2, N) - E2
    assert E2 @ E2 == E2 and E1 @ E1 == E1
    assert (E1 @ E2).is_zero() and (E2 @ E1).is_zero()
    assert E1 + E2 == MatFq.identity(2, N)
    L = qsum(Code(pk.G_pub), 1)
    G, H = L.gen, la.right_kernel(L.gen)
    for E in (E1, E2):
        assert ((G @ E) @ H.transpose()).is_zero()


def test_find_idempotent_trivial_algebra():
    # span{I, diag(0, I_n)}: the projector is already there
    N, n = 7, 5
    D = MatFq.zeros(2, N, N)
    for i in range(N - n, N):
        D.data[i][i] = 1
    alg = StabilizerAlgebra(N, [MatFq.identity(2, N), D])
    F = find_rank_n_idempotent(alg, n)
    assert F == D


def test_find_idempotent_rejects_small_algebra():
    alg = StabilizerAlgebra(4, [MatFq.identity(2, 4)])
    with pytest.raises(AttackError):
        find_rank_n_idempotent(alg, 2)


def test_find_idempotent_names_the_missing_algorithm():
    # dim-3 algebra of unipotents: no pencil direction works
    I = MatFq.identity(2, 4)
    E12 = MatFq.zeros(2, 4, 4)
    E12.data[0][1] = 1
    E13 = MatFq.zeros(2, 4, 4)
    E13.data[0][2] = 1
    alg = StabilizerAlgebra(4, [I, E12, E13])
    with pytest.raises(AttackError, match="Friedl"):
        find_rank_n_idempotent(alg, 2)


def test_extracted_idempotent_structure():
    for seed in range(5):
        ctx, params, sk, pk, msg, c, rng = _low_rank_instance(seed)
        L = qsum(Code(pk.G_pub), 1)
        alg = stabilizer(L)
        assert alg.dim == 2
        F = find_rank_n_idempotent(alg, params.n)
        assert F @ F == F
        assert la.rank(F) == params.n
        # with secret access: C_pub F = (0 | G_sec) P exactly
        zero = MatFqm.zeros(ctx, params.k, params.lam)
        assert Code(pk.G_pub @ F) == Code(zero.hstack(sk.G_sec) @ sk.P)


def test_extension_attack_low_rank_regime():
    for seed in range(5):
        ctx, params, sk, pk, msg, c, rng = _low_rank_instance(seed)
        rep = attack_extension(pk, c)
        assert rep.success and rep.recovered == msg
        assert rep.i_used == 1 and rep.stab_dim == 2
        assert rep.mode == "extension"
        assert set(rep.timings_ms) == {"qsum", "stabilizer", "idempotent", "decode", "recover"}
        # and the classic attack cannot see through the distortion
        ovb = attack_overbeck(pk, c, rng, i=1)
        assert not ovb.success
        assert ovb.failure.startswith("distortion_not_eliminated")
        ovb2 = attack_overbeck(pk, c, rng, i=2)
        assert not ovb2.success


def test_overbeck_classic_regime():
    ctx = field(2, 24)
    params = GptParams(ctx, n=20, k=9, lam=2, s=1)
    for seed in range(5):
        rng = derive_rng(503, seed)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(9)]
        c = encrypt(pk, msg, rng)
        rep = attack_overbeck(pk, c, rng, i=1)
        assert rep.success and rep.recovered == msg
        assert rep.mode == "overbeck_classic" and rep.i_used == 1


@pytest.mark.parametrize(
    "q, m, n, k, lam", [(2, 28, 24, 12, 6), (3, 12, 10, 4, 2)], ids=["q2-m28", "q3-m12"]
)
def test_extension_idempotent_makes_a_reusable_plan(q, m, n, k, lam):
    # the idempotent F an attack finds is as good as the secret key: the
    # plan of G_pub F decrypts fresh ciphertexts of the same key
    ctx = field(q, m)
    rng = derive_rng(77, 1)
    sk, pk = keygen(GptParams(ctx, n=n, k=k, lam=lam, s=1), rng)
    msg = [ctx.random(rng) for _ in range(k)]
    rep = attack_extension(pk, encrypt(pk, msg, rng))
    assert rep.success and rep.recovered == msg
    G = pk.G_pub @ rep.F
    C, readout = code_and_transform(G)
    plan = make_plan(rep.F, G, prepare(C, pk.params.t), readout)
    for _ in range(4):
        msg = [ctx.random(rng) for _ in range(k)]
        assert plan.decrypt(encrypt(pk, msg, rng)) == msg


def test_decode_and_recover_refuses_rank_deficient_map():
    ctx, params, sk, pk, msg, c, rng = _low_rank_instance(8)
    zero = MatFq.zeros(2, params.n + params.lam, params.n)
    tm = {"decode": 0.0, "recover": 0.0}
    assert _decode_and_recover(pk, c, zero, tm) == (None, "projected_generator_rank_deficient")


def test_attack_reads_only_public_data():
    ctx, params, sk, pk, msg, c, rng = _low_rank_instance(6)
    import copy

    pk_clone = copy.deepcopy(pk)
    rep = attack_extension(pk_clone, c)
    assert rep.success and rep.recovered == msg


def test_stabilizer_splits_block_diagonal_code_only():
    # MRD codes never split: the stabilizer is the scalars alone
    ctx = field(2, 12)
    rng = make_rng(504)
    C = gabidulin(ctx, la.random_independent_vec(ctx, 8, rng), 3)
    assert stabilizer(C).dim == 1
    # block-diagonal construction splits by construction
    A = random_code(ctx, 5, 2, rng)
    B = random_code(ctx, 6, 2, rng)
    ZA = MatFqm.zeros(ctx, 2, 6)
    ZB = MatFqm.zeros(ctx, 2, 5)
    D = Code(A.gen.hstack(ZA).vstack(ZB.hstack(B.gen)))
    assert la.rank(find_rank_n_idempotent(stabilizer(D), 5)) == 5


def test_block_diagonal_stabilizer_blocks_are_conductors():
    # off-diagonal blocks of Stab(A + B) map A into B and B into A
    ctx = field(2, 12)
    rng = make_rng(505)
    A = random_code(ctx, 5, 2, rng)
    B = random_code(ctx, 6, 2, rng)
    D = Code(A.gen.hstack(MatFqm.zeros(ctx, 2, 6)).vstack(MatFqm.zeros(ctx, 2, 5).hstack(B.gen)))
    alg = stabilizer(D)
    for M in alg.basis:
        M12 = MatFq(2, [row[5:] for row in M.data[:5]], 6)
        M21 = MatFq(2, [row[:5] for row in M.data[5:]], 5)
        for row in (A.gen @ M12).data:
            assert B.contains(row)
        for row in (B.gen @ M21).data:
            assert A.contains(row)


def test_extension_saturation_reported():
    # a random public-looking code saturates the q-sum before splitting
    ctx = field(2, 16)
    rng = make_rng(506)
    C = random_code(ctx, 12, 5, rng)
    params = GptParams(ctx, n=10, k=5, lam=2, s=1, t=1)
    from rankcrypt.gpt import GptPublicKey

    pk = GptPublicKey(params, C.gen)
    rep = attack_extension(pk, [ctx.random(rng) for _ in range(12)], i_max=4)
    assert not rep.success
    assert rep.failure == "qsum_saturated" and rep.stab_dim == 1


def test_overbeck_rejects_length_mismatch():
    ctx, params, sk, pk, msg, c, rng = _low_rank_instance(7)
    with pytest.raises(ValueError):
        attack_overbeck(pk, c[:-1], rng)
    with pytest.raises(ValueError):
        attack_extension(pk, c + [0])


# -- the probe stabilizer against the full system ------------------------------


def _full_system_basis(C):
    """Stabilizer basis from every constraint g_a (x) h_b, built with the
    field's mul_row and fed to fq_kernel: the reference the probes and exact
    checks must reproduce at every q."""
    ctx, N = C.ctx, C.n
    H = la.right_kernel(C.gen)
    rows = (
        [p for gu in ga for p in ctx.mul_row(gu, hb)] for ga in C.gen.data for hb in H.data
    )
    vecs = la.fq_kernel(ctx, rows, N * N).data
    return [MatFq(ctx.q, [vec[u * N : (u + 1) * N] for u in range(N)], N) for vec in vecs]


def _probe_rows(C):
    # ceil(N^2 / m) probes of m F_q rows each
    return -(-C.n * C.n // C.ctx.m) * C.ctx.m


def _block_diagonal_code(ctx, rng):
    A = random_code(ctx, 5, 2, rng)
    B = random_code(ctx, 6, 2, rng)
    return Code(A.gen.hstack(MatFqm.zeros(ctx, 2, 6)).vstack(MatFqm.zeros(ctx, 2, 5).hstack(B.gen)))


def _twisted_qsum_m104():
    params = GptParams(field(2, 104), n=26, k=18, lam=6, s=1, instantiation="twisted", ell=2)
    _, pk = keygen(params, make_rng(507))
    return qsum(Code(pk.G_pub), 1)


def _oddq_m12_qsum():
    # the first seed-0 key of the oddq-m12 benchmark row: Lambda_1 is a
    # [12, 7] code
    params = GptParams(field(3, 12), n=10, k=4, lam=2, s=1)
    _, pk = keygen(params, derive_rng(0, 0))
    return qsum(Code(pk.G_pub), 1)


_PROBE_CASES = {
    "m3": lambda: random_code(field(2, 3), 6, 2, make_rng(508)),
    "m4": lambda: random_code(field(2, 4), 8, 5, make_rng(509)),
    "m16": lambda: random_code(field(2, 16), 12, 5, make_rng(510)),
    "block-diagonal": lambda: _block_diagonal_code(field(2, 12), make_rng(505)),
    "full-space": lambda: Code(MatFqm.identity(field(2, 8), 4)),
    "m28-low-rank": lambda: qsum(Code(_low_rank_instance(2)[3].G_pub), 1),
    "m104-twisted": _twisted_qsum_m104,
    "q3-m8": lambda: random_code(field(3, 8), 8, 3, make_rng(511)),
    "q3-block-diagonal": lambda: _block_diagonal_code(field(3, 6), make_rng(505)),
    "q3-full-space": lambda: Code(MatFqm.identity(field(3, 4), 4)),
    "oddq-m12": _oddq_m12_qsum,
}


# rows of the full system, and a bound on the rows the probes feed
_FULL_AND_PROBE_ROWS = {
    "m28-low-rank": (6300, 1000),
    "m104-twisted": (18200, 1100),
    "oddq-m12": (420, 144),
}


@pytest.mark.parametrize("case", list(_PROBE_CASES))
def test_probe_stabilizer_matches_full_system(case):
    C = _PROBE_CASES[case]()
    alg = stabilizer(C)
    assert alg.basis == _full_system_basis(C)
    H_rows = C.n - C.k
    if H_rows == 0:
        assert alg.rows_fed == 0  # no constraint, so no probe
    else:
        assert alg.rows_fed >= _probe_rows(C)
    if case in _FULL_AND_PROBE_ROWS:
        # 33 probes for 225 pairs at m=28, 10 for 175 pairs at m=104, 12
        # for 35 pairs at q=3, m=12
        full, bound = _FULL_AND_PROBE_ROWS[case]
        assert C.k * H_rows * C.ctx.m == full
        assert alg.rows_fed <= bound


@pytest.mark.parametrize(
    "q, m, n, k, seed", [(2, 16, 12, 5, 2), (2, 16, 12, 9, 5), (3, 8, 8, 3, 3), (3, 12, 12, 6, 15)]
)
def test_probe_stabilizer_witness_rows(q, m, n, k, seed):
    # the probes leave extra kernel candidates here, so the exact check
    # fails and the violated pairs' rows are fed until the basis is exact;
    # k=5 at q=2 and k=3 at q=3 check through H (fewer columns outside its
    # identity block than G), the other two through G
    ctx = field(q, m)
    C = random_code(ctx, n, k, make_rng(seed))
    alg = stabilizer(C)
    assert alg.rows_fed > _probe_rows(C)
    assert (alg.rows_fed - _probe_rows(C)) % ctx.m == 0
    assert alg.basis == _full_system_basis(C)


@pytest.mark.parametrize("q, m, n, k", [(3, 8, 8, 3), (3, 5, 7, 4), (5, 4, 6, 2), (7, 3, 5, 3)])
def test_stabilizer_at_odd_q_matches_field_products(q, m, n, k):
    C = random_code(field(q, m), n, k, make_rng(512 + q * m))
    assert stabilizer(C).basis == _full_system_basis(C)
    block = _block_diagonal_code(field(q, m), make_rng(513))
    alg = stabilizer(block)
    assert alg.basis == _full_system_basis(block) and alg.dim >= 2


# -- odd q end to end -------------------------------------------------------------


def test_odd_q_end_to_end_at_a_realistic_width():
    # (q, m, n, k, lambda, s) = (3, 40, 24, 12, 6, 1), N = 30: the probed
    # stabilizer feeds 920 F_3 rows where the full system has 9000.  The
    # distortion hides from Overbeck at i=1 (s (i + 1) < lambda), and the
    # extension attack splits Lambda_1.  The three keys took 1.4 s on a
    # 2-core machine (7.0 s when the full system was solved); the bound is
    # about three times that, so a return to the full system fails it.
    t0 = time.perf_counter()
    params = GptParams(field(3, 40), n=24, k=12, lam=6, s=1)
    ctx = params.ctx
    for i in (1, 2, 3):
        rng = derive_rng(99, i)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(params.k)]
        c = encrypt(pk, msg, rng)
        assert decrypt(sk, c) == msg
        ext = attack_extension(pk, c, i_max=1)
        assert ext.success and ext.recovered == msg
        assert (ext.i_used, ext.stab_dim) == (1, 2)
        ovb = attack_overbeck(pk, c, rng)
        assert not ovb.success and ovb.failure.startswith("distortion_not_eliminated")
    assert time.perf_counter() - t0 < 4.5


def test_odd_q_end_to_end_at_q5():
    # (q, m, n, k, lambda, s) = (5, 8, 8, 3, 2, 1): decrypt and Overbeck
    # break all three keys; the stabilizer has dimension 28 on each, and
    # the pencil search finds the idempotent on keys 0 and 2 but not on
    # key 1, which needs the general algebra decomposition.  Most of the
    # time is key 1's pencils: thousands of 10 x 10 F_5 ranks.  The bound,
    # about twice the 1.8-2.9 s measured on a 2-core machine, so also
    # catches a doubled small-matrix cost of the F_q echelon.
    t0 = time.perf_counter()
    params = GptParams(field(5, 8), n=8, k=3, lam=2, s=1)
    ctx = params.ctx
    extension = []
    for i in range(3):
        rng = derive_rng(77, i)
        sk, pk = keygen(params, rng)
        msg = [ctx.random(rng) for _ in range(params.k)]
        c = encrypt(pk, msg, rng)
        assert decrypt(sk, c) == msg
        ovb = attack_overbeck(pk, c, rng)
        assert ovb.success and ovb.recovered == msg
        ext = attack_extension(pk, c)
        assert ext.stab_dim == 28
        assert not ext.success or ext.recovered == msg  # never a wrong message
        extension.append(ext.success or ext.failure.split(":")[0])
    assert extension == [True, "general_decomposition_required", True]
    assert time.perf_counter() - t0 < 5.0
