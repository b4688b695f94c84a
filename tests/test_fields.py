"""Field context tests: frozen oracle tables, ring axioms, Frobenius."""

import pytest

from rankcrypt.fields import field, field_from_json
from rankcrypt.rng import make_rng


def test_canonical_moduli_match_oracle(derived):
    for key, mod in derived["canonical_moduli"].items():
        q, m = map(int, key.split(","))
        assert list(field(q, m).modulus) == mod


def test_f8_product(derived):
    ctx = field(2, 3)
    assert ctx.mul(0b010, 0b100) == derived["f8_mul_x_x2"]


def test_f16_tables(derived):
    ctx = field(2, 4)
    for a in range(16):
        assert ctx.frob(a, 1) == derived["f16_frob_table"][a]
        for b in range(16):
            assert ctx.mul(a, b) == derived["f16_mul_table"][a][b]
    for a in range(1, 16):
        assert ctx.inv(a) == derived["f16_inv_table"][a]


def test_f9_tables(derived):
    ctx = field(3, 2)
    for a in range(9):
        assert ctx.frob(a, 1) == derived["f9_frob_table"][a]
        for b in range(9):
            assert ctx.mul(a, b) == derived["f9_mul_table"][a][b]
    for a in range(1, 9):
        assert ctx.inv(a) == derived["f9_inv_table"][a]


def test_ring_axioms_seeded():
    for ctx in (field(2, 12), field(2, 40), field(3, 3)):
        rng = make_rng(7)
        for _ in range(200):
            a, b, c = (ctx.random(rng) for _ in range(3))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(a, ctx.one) == a
            assert ctx.add(a, ctx.neg(a)) == ctx.zero
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            if a:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_inverse_of_zero_rejected():
    ctx = field(2, 8)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_frobenius_is_field_automorphism():
    # (a+b)^[i] = a^[i] + b^[i], (ab)^[i] = a^[i] b^[i], fixed field = F_q
    for ctx in (field(2, 16), field(3, 3)):
        rng = make_rng(11)
        for _ in range(200):
            a, b = ctx.random(rng), ctx.random(rng)
            i = int(rng.integers(0, 2 * ctx.m))
            assert ctx.frob(ctx.add(a, b), i) == ctx.add(ctx.frob(a, i), ctx.frob(b, i))
            assert ctx.frob(ctx.mul(a, b), i) == ctx.mul(ctx.frob(a, i), ctx.frob(b, i))
            assert ctx.frob(a, ctx.m) == a
            assert ctx.frob(ctx.frob(a, 1), ctx.m - 1) == a
        for c in range(ctx.q):
            assert ctx.frob(c, 1) == c


def test_power_matches_repeated_mul():
    ctx = field(2, 10)
    rng = make_rng(3)
    for _ in range(50):
        a = ctx.random_nonzero(rng)
        acc = ctx.one
        for e in range(8):
            assert ctx.power(a, e) == acc
            acc = ctx.mul(acc, a)
    # multiplicative group order
    assert ctx.power(3, ctx.order - 1) == ctx.one


def test_coeffs_encode_roundtrip():
    for ctx in (field(2, 14), field(5, 2)):
        rng = make_rng(19)
        for _ in range(100):
            a = ctx.random(rng)
            cs = ctx.coeffs(a)
            assert len(cs) == ctx.m and all(0 <= c < ctx.q for c in cs)
            assert ctx.encode(cs) == a


def test_row_helpers_match_scalar_ops():
    ctx = field(2, 24)
    rng = make_rng(23)
    for _ in range(50):
        row = [ctx.random(rng) for _ in range(9)]
        a = ctx.random(rng)
        assert ctx.mul_row(a, row) == [ctx.mul(a, v) for v in row]
        assert ctx.frob_row(row, 2) == [ctx.frob(v, 2) for v in row]
        acc = [ctx.random(rng) for _ in range(9)]
        want = [ctx.add(u, ctx.mul(a, v)) for u, v in zip(acc, row)]
        ctx.mac_row(acc, a, row)
        assert acc == want


def test_hex_and_json_roundtrip():
    ctx = field(2, 104)
    rng = make_rng(5)
    for _ in range(50):
        a = ctx.random(rng)
        assert ctx.from_hex(ctx.to_hex(a)) == a
    again = field_from_json(ctx.to_json())
    assert again == ctx
    again.check_same(ctx)  # interoperable: same (q, m, modulus)


def test_context_mixing_rejected():
    a, b = field(2, 8), field(2, 9)
    with pytest.raises(ValueError):
        a.check_same(b)
    c = field(2, 8, [1, 0, 1, 1, 1, 0, 0, 0, 1])  # a different irreducible
    assert c.modulus != a.modulus
    with pytest.raises(ValueError):
        a.check_same(c)


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        field(2, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x+1)^4, reducible
    with pytest.raises(ValueError):
        field(2, 4, [1, 1, 0, 0])  # wrong degree


def test_random_uniformity_chi_squared():
    # frequency counts over F_8 in 10^4 draws; chi^2 df=7, 99% cutoff 18.475
    ctx = field(2, 3)
    rng = make_rng(2024)
    counts = [0] * 8
    draws = 10_000
    for _ in range(draws):
        counts[ctx.random(rng)] += 1
    expect = draws / 8
    chi2 = sum((c - expect) ** 2 / expect for c in counts)
    assert chi2 < 18.475


def test_random_nonzero_never_zero():
    ctx = field(2, 4)
    rng = make_rng(8)
    assert all(ctx.random_nonzero(rng) != 0 for _ in range(500))
