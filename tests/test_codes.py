"""Code constructors, q-sums, duals, closures, and the distinguisher."""

import pytest

from rankcrypt import linalg as la
from rankcrypt.codes import (
    Code,
    TwistParams,
    classify,
    closure,
    dim_profile,
    dual,
    gabidulin,
    moore_matrix,
    prw_parameters,
    qsum,
    random_code,
    sample_hooks,
    twisted_gabidulin,
)
from rankcrypt.decoder import max_radius
from rankcrypt.fields import field
from rankcrypt.linalg import MatFqm
from rankcrypt.rng import derive_rng, make_rng


def _rand_gab(ctx, n, k, rng):
    g = la.random_independent_vec(ctx, n, rng)
    return g, gabidulin(ctx, g, k)


def test_moore_matrix_shape_and_rows():
    ctx = field(2, 10)
    rng = make_rng(201)
    g = la.random_independent_vec(ctx, 8, rng)
    M = moore_matrix(ctx, g, 1)
    assert M.rows == 1 and M.data[0] == list(g)
    M = moore_matrix(ctx, g, 5)
    for i in range(5):
        assert M.data[i] == ctx.frob_row(list(g), i)
    assert la.rank(M) == 5


def test_moore_nonsingular_on_basis(derived):
    ctx = field(2, 3)
    case = derived["moore_rank_f8"]
    M = moore_matrix(ctx, list(case["g"]), 3)
    assert la.rank(M) == case["rank"]


def test_moore_rejects_dependent_g():
    ctx = field(2, 8)
    with pytest.raises(ValueError):
        moore_matrix(ctx, [1, 1, 0], 2)


def test_gabidulin_min_distance_exhaustive(derived):
    # [4,2] over F_16: enumerate all 256 codewords
    ctx = field(2, 4)
    C = gabidulin(ctx, [0b0001, 0b0010, 0b0100, 0b1000], 2)
    G = moore_matrix(ctx, [0b0001, 0b0010, 0b0100, 0b1000], 2)
    best = 4
    for m0 in range(16):
        for m1 in range(16):
            if m0 == m1 == 0:
                continue
            cw = la.vec_mat(ctx, [m0, m1], G)
            best = min(best, la.rank_fq(ctx, cw))
    assert best == derived["gabidulin_4_2_f16_min_distance"] == C.n - C.k + 1


def test_dim_profile_rejects_negative_i_max():
    ctx = field(2, 16)
    _, C = _rand_gab(ctx, 14, 5, make_rng(211))
    assert dim_profile(C, 0) == [5]
    with pytest.raises(ValueError):
        dim_profile(C, -1)


def test_gabidulin_lambda_law():
    ctx = field(2, 16)
    for seed in range(10):
        rng = derive_rng(210, seed)
        g, C = _rand_gab(ctx, 14, 5, rng)
        assert dim_profile(C, 9) == [min(14, 5 + i) for i in range(10)]
        # exact canonical equality with the larger Gabidulin code
        assert qsum(C, 3) == gabidulin(ctx, g, 8)


def test_gabidulin_column_transform():
    ctx = field(2, 12)
    rng = make_rng(211)
    g, C = _rand_gab(ctx, 10, 4, rng)
    T = la.random_gl(2, 10, rng)
    lhs = Code(C.gen @ T)
    rhs = gabidulin(ctx, la.vec_mat(ctx, g, T), 4)
    assert lhs == rhs


def test_random_code_lambda_growth():
    ctx = field(2, 24)
    hits = 0
    for seed in range(20):
        rng = derive_rng(212, seed)
        C = random_code(ctx, 20, 4, rng)
        hits += dim_profile(C, 2) == [4, 8, 12]
    assert hits >= 19


def test_twisted_matches_gabidulin_without_twists():
    ctx = field(2, 12)
    rng = make_rng(213)
    g = la.random_independent_vec(ctx, 10, rng)
    tw = TwistParams([], [], [])
    assert twisted_gabidulin(ctx, g, 4, tw) == gabidulin(ctx, g, 4)


def test_twisted_rows_match_definition():
    ctx = field(2, 20)
    rng = make_rng(214)
    n, k = 17, 9  # delta = (17-9-2)/3 = 2
    g = la.random_independent_vec(ctx, n, rng)
    tw = prw_parameters(ctx, n, k, 2, rng)
    from rankcrypt.codes import twisted_moore_matrix

    G = twisted_moore_matrix(ctx, g, k, tw)
    plain = moore_matrix(ctx, g, k)
    for i in range(k):
        if i in tw.h:
            j = tw.h.index(i)
            extra = ctx.mul_row(tw.eta[j], ctx.frob_row(list(g), k - 1 + tw.t[j]))
            want = [ctx.add(a, b) for a, b in zip(plain.data[i], extra)]
            assert G.data[i] == want
        else:
            assert G.data[i] == plain.data[i]


def test_twisted_lambda_law():
    # dim Lambda_i = min{k+i+ell(i+1), n} for i >= 1 on Assumption-1 shapes
    ctx = field(2, 32)
    for seed in range(10):
        rng = derive_rng(215, seed)
        g = la.random_independent_vec(ctx, 26, rng)
        tw = prw_parameters(ctx, 26, 18, 2, rng)
        C = twisted_gabidulin(ctx, g, 18, tw)
        prof = dim_profile(C, 2)
        assert prof[0] == 18
        assert prof[1] == min(18 + 1 + 2 * 2, 26) == 23
        assert prof[2] == min(18 + 2 + 2 * 3, 26) == 26


def test_prw_parameters_contract():
    ctx = field(2, 32)
    for seed in range(100):
        rng = derive_rng(216, seed)
        tw = prw_parameters(ctx, 26, 18, 2, rng)
        # delta = (26-18-2)/3 = 2 -> t = (3, 6)
        assert tw.t == (3, 6)
        assert len(set(tw.t)) == len(tw.t) and all(1 <= t <= 8 for t in tw.t)
        assert all(b - a > 1 for a, b in zip(tw.h, tw.h[1:]))
        assert all(e != 0 for e in tw.eta)
    assert prw_parameters(ctx, 26, 18, 0, make_rng(0)).h == ()
    with pytest.raises(ValueError):
        prw_parameters(ctx, 27, 18, 2, make_rng(0))  # delta not integral


def test_twist_params_validation():
    with pytest.raises(ValueError):
        TwistParams([1], [1, 2], [1])  # length mismatch
    tw = TwistParams([3, 1], [1, 2], [1, 1])
    with pytest.raises(ValueError):
        tw.validate(10, 6)  # hooks not increasing
    tw = TwistParams([1, 3], [1, 9], [1, 1])
    with pytest.raises(ValueError):
        tw.validate(10, 6)  # twist exponent > n-k
    tw = TwistParams([1, 3], [2, 2], [1, 1])
    with pytest.raises(ValueError):
        tw.validate(10, 6)  # repeated exponent


def test_sample_hooks_gaps():
    rng = make_rng(217)
    for _ in range(100):
        hs = sample_hooks(12, 3, rng)
        assert all(b - a > 1 for a, b in zip(hs, hs[1:]))
        assert all(1 <= h <= 10 for h in hs)
    with pytest.raises(ValueError):
        sample_hooks(8, 3, rng)


def test_lambda_of_single_error_vector():
    # dim Lambda_t(<e>) = t for rank-t e (t=2, m=8)
    ctx = field(2, 8)
    rng = make_rng(218)
    for _ in range(20):
        e = la.random_vec_rank(ctx, 8, 2, rng)
        E = Code(MatFqm(ctx, [list(e)], 8))
        assert qsum(E, 1).k <= 2
        assert qsum(E, 2).k == 2


def test_lambda_nesting_and_composition():
    ctx = field(2, 18)
    rng = make_rng(219)
    for _ in range(10):
        C = random_code(ctx, 12, 3, rng)
        for i in range(3):
            assert all(qsum(C, i + 1).contains(r) for r in qsum(C, i).gen.data)
        assert qsum(qsum(C, 1), 2) == qsum(C, 3)


def test_lambda_commutes_with_column_transform():
    ctx = field(2, 14)
    rng = make_rng(220)
    C = random_code(ctx, 10, 3, rng)
    P = la.random_gl(2, 10, rng)
    assert qsum(Code(C.gen @ P), 2) == Code(qsum(C, 2).gen @ P)


def test_dual_contract():
    ctx = field(2, 12)
    rng = make_rng(221)
    for _ in range(10):
        C = random_code(ctx, 10, 4, rng)
        D = dual(C)
        assert D.k == 6
        assert (C.gen @ D.gen.transpose()).is_zero()
        assert dual(D) == C


def test_dual_of_gabidulin_is_mrd():
    # [4,2] over F_16 -> dual [4,2], min distance 3 by enumeration
    ctx = field(2, 4)
    C = gabidulin(ctx, [1, 2, 4, 8], 2)
    D = dual(C)
    best = 4
    for m0 in range(16):
        for m1 in range(16):
            if m0 == m1 == 0:
                continue
            cw = la.vec_mat(ctx, [m0, m1], D.gen)
            best = min(best, la.rank_fq(ctx, cw))
    assert best == D.n - D.k + 1


def test_closure_identities():
    ctx = field(2, 20)
    rng = make_rng(223)
    # Gabidulin closure is the code itself for s < n-k
    g, C = _rand_gab(ctx, 12, 4, rng)
    for s in (1, 2, 3):
        Cb = closure(C, s)
        assert Cb == C
        assert qsum(Cb, s) == qsum(C, s)
    # random [20,4], s=2: closure = C in most seeds
    hits = 0
    for seed in range(20):
        rng = derive_rng(224, seed)
        C = random_code(ctx, 20, 4, rng)
        hits += closure(C, 2) == C
    assert hits >= 19


def test_closure_contains_code():
    ctx = field(2, 16)
    rng = make_rng(225)
    for _ in range(10):
        C = random_code(ctx, 10, 3, rng)
        assert all(closure(C, 2).contains(r) for r in C.gen.data)


def test_classify_families():
    ctx = field(2, 32)
    rng = make_rng(226)
    g = la.random_independent_vec(ctx, 26, rng)
    assert classify(gabidulin(ctx, g, 18)) == ("gabidulin_like", 0)
    tw = prw_parameters(ctx, 26, 18, 2, rng)
    assert classify(twisted_gabidulin(ctx, g, 18, tw)) == ("twisted_like", 2)
    label, _ = classify(random_code(ctx, 26, 5, rng))
    assert label == "random_like"


def test_code_canonical_idempotent():
    ctx = field(2, 12)
    rng = make_rng(227)
    M = MatFqm.random(ctx, 5, 9, rng)
    C = Code(M)
    assert Code(C.gen) == C
    assert la.rank(C.gen) == C.k
    # membership
    msg = [ctx.random(rng) for _ in range(C.k)]
    assert C.contains(la.vec_mat(ctx, msg, C.gen))
    assert not C.contains([ctx.random(rng) for _ in range(9)]) or C.k == 9


def test_contains_rejects_a_length_mismatch():
    ctx = field(2, 12)
    rng = make_rng(228)
    C = Code(MatFqm.random(ctx, 3, 6, rng))
    cw = la.vec_mat(ctx, [ctx.random(rng) for _ in range(3)], C.gen)
    assert C.contains(cw)
    for v in (cw + [5, 7], cw + [0], cw[:-1], []):
        with pytest.raises(ValueError):
            C.contains(v)
    assert Code(MatFqm(ctx, [], 6)).contains([0] * 6)
    assert not Code(MatFqm(ctx, [], 6)).contains([0] * 5 + [1])


# -- q-sums grown from their new rows against every row raised each step -----


def _ref_profile(C, i_max):
    """[Lambda_i(C) for i = 0..i_max], each the code of C, C^[1], ..., C^[i]
    with every row of C raised at every step."""
    ctx, rows, out = C.ctx, C.gen.data, []
    acc, shifted = list(rows), rows
    for _ in range(i_max + 1):
        out.append(Code(MatFqm(ctx, acc, C.n)))
        shifted = [ctx.frob_row(r) for r in shifted]
        acc = acc + shifted
    return out


def _qsum_case(kind, q, m):
    """Gabidulin, twisted and random codes, and a code whose q-sums stall
    at C because its generator lies over F_q."""
    ctx = field(q, m)
    rng = derive_rng(229, q * m)
    g = la.random_independent_vec(ctx, 12, rng)
    if kind == "gabidulin":
        return gabidulin(ctx, g, 4)
    if kind == "twisted":
        return twisted_gabidulin(ctx, g, 7, prw_parameters(ctx, 12, 7, 2, rng))
    if kind == "random":
        return random_code(ctx, 12, 3, rng)
    return Code(MatFqm(ctx, la.MatFq.random(q, 3, 12, rng).data, 12))


@pytest.mark.parametrize("kind", ["gabidulin", "twisted", "random", "over F_q"])
@pytest.mark.parametrize("q, m", [(2, 16), (2, 40), (3, 12)])
def test_qsum_from_new_rows_matches_every_row_raised(kind, q, m):
    C = _qsum_case(kind, q, m)
    ref = _ref_profile(C, C.n)  # past every t with dim Lambda_t + t <= n
    for i in range(C.n + 1):
        assert qsum(C, i) == ref[i], i
    dims = [L.k for L in ref]
    assert dim_profile(C, C.n) == dims
    assert max_radius(C) == max(t for t, d in enumerate(dims) if d + t <= C.n)
    if kind == "over F_q":
        assert dims == [3] * (C.n + 1)
    if kind == "twisted":
        assert dims[:3] == [7, 7 + 1 + 2 * 2, 12]
