"""Matrix and subspace layer: contract examples, frozen oracles, properties."""

import numpy as np
import pytest

from rankcrypt import linalg as la
from rankcrypt.fields import field
from rankcrypt.linalg import MatFq, MatFqm
from rankcrypt.rng import make_rng


def test_rref_identity_and_zero():
    ctx = field(2, 8)
    I = MatFqm.identity(ctx, 4)
    R, rank, pivots = la.rref(I)
    assert R == I and rank == 4 and pivots == [0, 1, 2, 3]
    Z = MatFqm.zeros(ctx, 3, 5)
    R, rank, pivots = la.rref(Z)
    assert rank == 0 and pivots == []


def test_empty_identity():
    ctx = field(2, 8)
    for I, Z in ((MatFqm.identity(ctx, 0), MatFqm.zeros(ctx, 0, 3)),
                 (MatFq.identity(3, 0), MatFq.zeros(3, 0, 3))):
        assert (I.rows, I.cols) == (0, 0)
        P = I @ Z
        assert (P.rows, P.cols) == (0, 3) and P == Z


def test_rref_rank_matches_enumeration(derived):
    M = MatFq(2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], 3)
    _, rank, _ = la.rref(M)
    assert rank == derived["rank_f2_rows_110_011_101"]


def test_right_kernel_contract(derived):
    ctx = field(2, 6)
    # full column rank -> empty basis
    M = MatFqm(ctx, [[1, 0], [0, 1], [1, 1]], 2)
    assert la.right_kernel(M).rows == 0
    # zero matrix -> identity basis
    Z = MatFqm.zeros(ctx, 2, 4)
    K = la.right_kernel(Z)
    assert K.rows == 4 and la.rank(K) == 4
    # (1 1) over F_2
    K = la.right_kernel(MatFq(2, [[1, 1]], 2))
    assert [list(r) for r in K.data] == derived["kernel_11_f2"]


def test_kernel_dimension_and_membership():
    ctx = field(2, 10)
    rng = make_rng(31)
    for _ in range(40):
        M = MatFqm.random(ctx, 4, 7, rng)
        K = la.right_kernel(M)
        assert K.rows == 7 - la.rank(M)
        if K.rows:
            assert (M @ K.transpose()).is_zero()


def test_rank_fq_examples(derived):
    ctx = field(2, 3)
    assert la.rank_fq(ctx, [0, 0, 0, 0]) == 0
    a = ctx.random_nonzero(make_rng(1))
    assert la.rank_fq(ctx, [a] * 5) == 1
    assert la.rank_fq(ctx, [0b001, 0b010, 0b100]) == derived["rank_fq_basis_f8"]


def test_rank_fq_isometry_under_gl():
    ctx = field(2, 12)
    rng = make_rng(41)
    for _ in range(60):
        x = [ctx.random(rng) for _ in range(10)]
        P = la.random_gl(2, 10, rng)
        assert la.rank_fq(ctx, la.vec_mat(ctx, x, P)) == la.rank_fq(ctx, x)


def test_expand_fq_system_contract(derived):
    ctx = field(2, 2)
    w = 0b10
    # u1*1 + u2*w = 0 has only the zero solution
    A = la.expand_fq_system(MatFqm(ctx, [[1, w]], 2))
    assert la.right_kernel(A).rows == derived["expand_f4_solution_count"] - 1
    # u1*a + u2*a = 0 -> kernel span{(1,1)}
    ctx8 = field(2, 3)
    A = la.expand_fq_system(MatFqm(ctx8, [[5, 5]], 2))
    K = la.right_kernel(A)
    assert K.rows == 1 and K.data[0] == [1, 1]
    # single constraint u1*1 = 0 forces u1 = 0
    A = la.expand_fq_system(MatFqm(ctx8, [[1]], 1))
    assert la.right_kernel(A).rows == 0


def test_expand_fq_system_vs_enumeration():
    # q^N small: solution sets must agree with brute force, and fq_kernel
    # must return the same basis as the expanded system's right kernel
    rng = make_rng(43)
    cases = []
    for ctx in (field(2, 4), field(3, 3)):
        cases += [MatFqm.random(ctx, 2, 5, rng) for _ in range(20)] + [MatFqm(ctx, [], 5)]
    for M in cases:
        ctx, q = M.ctx, M.ctx.q
        K = la.right_kernel(la.expand_fq_system(M))
        assert la.fq_kernel(ctx, M.data, M.cols) == K
        sols = set()
        for v in range(q**5):
            u = [(v // q**i) % q for i in range(5)]
            img = la.mat_vec(ctx, M, u)
            if all(x == 0 for x in img):
                sols.add(tuple(u))
        assert len(sols) == q**K.rows
        for row in K.data:
            assert tuple(row) in sols


def _augmented(ctx, M, rhs):
    """The expanded F_q system of M u = rhs as one [A | b] array."""
    A = la.expand_fq_system(M)
    b = [d for s in rhs for d in ctx.coeffs(s)]
    system = np.array([row + [d] for row, d in zip(A.data, b)], dtype=np.int64)
    return system.reshape(A.rows, A.cols + 1)


def test_solve_fq_consistent_and_inconsistent():
    ctx = field(2, 8)
    rng = make_rng(47)
    for _ in range(30):
        M = MatFqm.random(ctx, 3, 6, rng)
        u = [int(rng.integers(0, 2)) for _ in range(6)]
        rhs = la.mat_vec(ctx, M, u)
        got = la.solve_fq(2, _augmented(ctx, M, rhs))
        assert got is not None
        assert la.mat_vec(ctx, M, got) == rhs
    # inconsistent: constraint 0*u = 1
    assert la.solve_fq(2, _augmented(ctx, MatFqm(ctx, [[0, 0]], 2), [1])) is None


def test_random_gl_and_inverse():
    rng = make_rng(53)
    assert la.random_gl(2, 1, rng).data == [[1]]
    for _ in range(20):
        P = la.random_gl(2, 8, rng)
        I = MatFq.identity(2, 8)
        assert P @ P.inverse() == I
        assert P.inverse() @ P == I
    with pytest.raises(ValueError):
        MatFq(2, [[1, 1], [1, 1]], 2).inverse()


def test_random_rank_s_exact(derived):
    ctx = field(2, 3)
    rng = make_rng(59)
    hits = 0
    for _ in range(100):
        X = la.random_rank_s_matfqm(ctx, 3, 3, 1, rng)
        hits += la.rank(X) == 1
    assert hits == 100
    # forced full rank when s = k = lambda
    X = la.random_rank_s_matfqm(ctx, 3, 3, 3, rng)
    assert la.rank(X) == 3
    with pytest.raises(ValueError):
        la.random_rank_s_matfqm(ctx, 3, 3, 4, rng)


def test_random_vec_rank_exact():
    ctx = field(2, 16)
    rng = make_rng(61)
    for t in range(0, 5):
        for _ in range(20):
            e = la.random_vec_rank(ctx, 12, t, rng)
            assert la.rank_fq(ctx, e) == t


def test_subspace_ops_contract():
    ctx = field(2, 6)
    rng = make_rng(67)
    A = la.canonical(MatFqm.random(ctx, 3, 7, rng))
    Z = MatFqm.zeros(ctx, 0, 7)
    assert la.space_intersect(A, A) == A
    assert la.space_intersect(A, Z).rows == 0


def test_intersection_matches_enumeration(derived):
    ctx = field(2, 3)
    case = derived["intersect_f8"]
    A = la.canonical(MatFqm(ctx, [list(r) for r in case["A"]], 3))
    B = la.canonical(MatFqm(ctx, [list(r) for r in case["B"]], 3))
    assert la.space_intersect(A, B).rows == case["dim"]


def test_dimension_formula():
    ctx = field(2, 8)
    rng = make_rng(71)
    for _ in range(60):
        A = la.canonical(MatFqm.random(ctx, 2, 5, rng))
        B = la.canonical(MatFqm.random(ctx, 3, 5, rng))
        s = la.rank(A.vstack(B))
        i = la.space_intersect(A, B).rows
        assert s + i == A.rows + B.rows


def test_rank_transpose_invariance():
    ctx = field(2, 9)
    rng = make_rng(73)
    for _ in range(40):
        M = MatFqm.random(ctx, 4, 6, rng)
        assert la.rank(M) == la.rank(M.transpose())


def test_solve_left():
    ctx = field(2, 12)
    rng = make_rng(79)
    for _ in range(30):
        A = MatFqm.random(ctx, 3, 7, rng)
        X = MatFqm.random(ctx, 2, 3, rng)
        B = X @ A
        got = la.solve_left(A, B)
        assert got is not None and got @ A == B
    # inconsistent system
    A = MatFqm(ctx, [[1, 0]], 2)
    B = MatFqm(ctx, [[0, 1]], 2)
    assert la.solve_left(A, B) is None


def test_matmul_mixed_operands():
    # MatFq on the right of MatFqm: base-field entries act as constants
    ctx = field(2, 8)
    rng = make_rng(83)
    M = MatFqm.random(ctx, 3, 5, rng)
    P = la.random_gl(2, 5, rng)
    direct = M @ P
    lifted = M @ MatFqm(ctx, P.data, P.cols)
    assert direct == lifted


def test_random_independent_vec():
    ctx = field(2, 20)
    rng = make_rng(89)
    for n in (1, 10, 20):
        g = la.random_independent_vec(ctx, n, rng)
        assert la.rank_fq(ctx, g) == n
    with pytest.raises(ValueError):
        la.random_independent_vec(ctx, 21, rng)


# -- q=2 bit planes: products without F_{2^m} arithmetic, and the bulk load ---


def _entries(ctx, rng, count):
    """count elements, about half of them 0, 1, x^(m-1) or the one with
    every coefficient q-1 (the largest sums), the rest random."""
    special = [0, 1, ctx.q ** (ctx.m - 1), ctx.order - 1]
    return [
        special[int(rng.integers(4))] if rng.integers(2) else ctx.random(rng)
        for _ in range(count)
    ]


@pytest.mark.parametrize("m", [2, 3, 8, 9, 16, 28, 40, 104, 192])
def test_outer_bit_rows_match_field_products(m):
    ctx = field(2, m)
    rng = make_rng(600 + m)
    for M, N in ((1, 1), (1, 6), (6, 1), (5, 7), (7, 5)):
        x, y = _entries(ctx, rng, M), _entries(ctx, rng, N)
        expected = la._bit_rows(ctx, [ctx.mul(a, b) for a in x for b in y])
        assert la._outer_bit_rows(ctx, x, y) == expected, (M, N)
    top = (1 << m) - 1  # every coefficient 1: the largest sums of the kernel
    assert la._outer_bit_rows(ctx, [top] * 3, [top] * 4) == la._bit_rows(
        ctx, [ctx.mul(top, top)] * 12
    )


@pytest.mark.parametrize("block_bytes", [1, 1 << 17, 1 << 30])
@pytest.mark.parametrize("m", [3, 28, 104])
def test_clmul_planes_is_the_matrix_product(m, block_bytes, monkeypatch):
    # sums over a (K > 1), split into one entry per block, the default
    # blocks and a single block
    monkeypatch.setattr(la, "_CLMUL_BLOCK_BYTES", block_bytes)
    ctx = field(2, m)
    rng = make_rng(700 + m)
    for P, K, Q in ((1, 6, 5), (4, 1, 9), (3, 7, 2), (2, 0, 3)):
        A = MatFqm(ctx, [_entries(ctx, rng, K) for _ in range(P)], K)
        B = MatFqm(ctx, [_entries(ctx, rng, Q) for _ in range(K)], Q)
        bitsA = la._matrix_digits(ctx, A)
        bitsB = la._matrix_digits(ctx, B)
        planes = la._clmul_planes(ctx, bitsA, bitsB)
        expected = [e for r in _field_product(ctx, A, B) for e in r]
        assert la._pack_rows(planes.reshape(m, P * Q)) == la._bit_rows(ctx, expected)


@pytest.mark.parametrize("factor", [1, 3, 40])
@pytest.mark.parametrize("m", [3, 28, 104])
def test_products_reduce_before_the_float32_bound(m, factor, monkeypatch):
    _check_sums_within_the_bound(field(2, m), factor, make_rng(750 + m), monkeypatch)


@pytest.mark.parametrize("factor", [1, 3, 40])
@pytest.mark.parametrize("q, m", [(3, 4), (5, 12), (7, 3), (3, 41)])
def test_products_reduce_before_the_float32_bound_at_odd_q(q, m, factor, monkeypatch):
    _check_sums_within_the_bound(field(q, m), factor, make_rng(760 + q * m), monkeypatch)


def _check_sums_within_the_bound(ctx, factor, rng, monkeypatch):
    # with the bound lowered to a few times the smallest it can be (one
    # entry's 2m-1 reduced sums of terms up to (q-1)^2), the running sums of
    # _clmul_planes go through every mod q reduction (before a block of a,
    # before the reduction table, or neither), and so do the F_q right
    # operands' sums over K; no sum handed to _mod_q may exceed the bound
    q, m = ctx.q, ctx.m
    unit = (q - 1) ** 2
    exact = factor * (2 * m - 1) * unit
    monkeypatch.setattr(la, "_CLMUL_EXACT", exact)
    monkeypatch.setattr(la, "_CLMUL_BLOCK_BYTES", 1)
    seen = []

    def mod_q(S, q):
        seen.append(float(S.max()) if S.size else 0.0)
        return _mod_q(S, q)

    _mod_q = la._mod_q
    monkeypatch.setattr(la, "_mod_q", mod_q)
    top = ctx.order - 1
    K_long = 2 * (exact // unit) + 1  # F_q sums over more than two chunks of K
    for P, K, Q in ((2, 9, 3), (1, 1, 1), (3, 4, 2), (1, K_long, 1)):
        A = MatFqm(ctx, [[top] * K] + [_entries(ctx, rng, K) for _ in range(P - 1)], K)
        F = MatFq(q, [[q - 1] * Q for _ in range(K)], Q)
        assert (A @ F).data == _field_product(ctx, A, F), (P, K, Q)
        if K == K_long:
            continue
        B = MatFqm(ctx, [[top] * Q for _ in range(K)], Q)
        assert (A @ B).data == _field_product(ctx, A, B), (P, K, Q)
        B = MatFqm(ctx, [_entries(ctx, rng, Q) for _ in range(K)], Q)
        assert (A @ B).data == _field_product(ctx, A, B), (P, K, Q)
    assert seen and max(seen) <= exact


def _field_product(ctx, A, B) -> list[list[int]]:
    """A B entry by entry with the field's own mul and add: the reference
    for the bit-plane products."""
    out = []
    for row in A.data:
        acc = [0] * B.cols
        for a, brow in zip(row, B.data):
            acc = [ctx.add(s, ctx.mul(a, b)) for s, b in zip(acc, brow)]
        out.append(acc)
    return out


@pytest.mark.parametrize("m", [2, 3, 8, 16, 28, 40, 104, 192])
def test_matmul_at_q2_is_the_field_product(m):
    _check_products(field(2, m), make_rng(800 + m))


# q^m passes 2^64 at (3, 41), (5, 28) and (7, 23); at q=4099 even one
# product of two digits passes the float32 bound, so the sums are Python ints
@pytest.mark.parametrize(
    "q, m", [(3, 4), (3, 12), (3, 41), (5, 8), (5, 28), (7, 3), (7, 23), (4099, 2)]
)
def test_matmul_at_odd_q_is_the_field_product(q, m):
    _check_products(field(q, m), make_rng(850 + q * m))


def _check_products(ctx, rng):
    q = ctx.q
    top = ctx.order - 1  # every coefficient q-1

    def fqm(rows, cols, fill=None):
        data = [_entries(ctx, rng, cols) if fill is None else [fill] * cols for _ in range(rows)]
        return MatFqm(ctx, data, cols)

    def fq(rows, cols, fill=None):
        if fill is None:
            return MatFq(q, rng.integers(0, q, (rows, cols)).tolist(), cols)
        return MatFq(q, [[fill] * cols for _ in range(rows)], cols)

    # 0 rows, 0 inner, 0 columns, 1 x 1, dense, all q-1; then right
    # operands random and all q-1, over F_{q^m} and over F_q
    shapes = [(fqm(0, 3), 4), (fqm(3, 0), 4), (fqm(3, 4), 0), (fqm(1, 1), 1), (fqm(4, 6), 5)]
    shapes.append((fqm(2, 3, top), 4))
    for A, Q in shapes:
        for B in (fqm(A.cols, Q), fqm(A.cols, Q, top), fq(A.cols, Q), fq(A.cols, Q, q - 1)):
            got, want = A @ B, _field_product(ctx, A, B)
            assert (got.rows, got.cols) == (A.rows, Q)
            assert got.data == want, (A, B)
            # one row and one column of it through vec_mat and mat_vec
            if A.rows:
                assert la.vec_mat(ctx, A.data[0], B) == want[0]
            if Q:
                assert la.mat_vec(ctx, A, [r[0] for r in B.data]) == [r[0] for r in want]
    A = fqm(5, 5)
    for I in (MatFqm.identity(ctx, 5), MatFq.identity(q, 5)):
        assert (A @ I).data == A.data
    assert (MatFqm.identity(ctx, 5) @ A).data == A.data


def test_digits_round_trip_past_one_int64_limb():
    # q^m > 2^64: the encodings span two or more int64 limbs
    for q, m in ((3, 41), (5, 28), (7, 23)):
        ctx = field(q, m)
        rng = make_rng(870 + q)
        c = len(la._limb_powers(q, m))  # digits per limb
        elems = _entries(ctx, rng, 40) + [q**c, q**c - 1, q ** (2 * c) % ctx.order]
        digits = la._coeff_digits(ctx, elems)
        assert digits.tolist() == [ctx.coeffs(a) for a in elems]
        assert la._from_digits(ctx, digits) == elems


def _random_f2_rows(rng, count, width, density=0.5):
    return (rng.random((count, width)) < density).astype(np.uint8)


def _bulk_and_rowwise(bits, width, extra=()):
    packed = np.packbits(bits, axis=1, bitorder="little")
    rowwise, bulk = la._BitEchelon(width), la._BitEchelon(width)
    for r in packed:
        rowwise.add(int.from_bytes(r.tobytes(), "little"))
    bulk.load(packed)
    for r in extra:
        assert rowwise.add(r) == bulk.add(r)
    return rowwise, bulk


@pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 900])
def test_bit_echelon_load_matches_add(width):
    rng = np.random.default_rng(width)
    cases = {
        "empty": np.zeros((0, width), np.uint8),
        "rank 0": np.zeros((5, width), np.uint8),
        # unit upper triangular, rows shuffled
        "full rank": rng.permutation(
            np.triu(_random_f2_rows(rng, width, width), 1) | np.eye(width, dtype=np.uint8)
        ),
        "tall": _random_f2_rows(rng, width + 24, width),
        "sparse": _random_f2_rows(rng, max(2, width // 2), width, 0.05),
    }
    mixed = _random_f2_rows(rng, max(4, width // 3), width)
    mixed[1] = mixed[0]  # a duplicate
    mixed[2] = 0  # a zero row
    mixed[3] ^= mixed[0]  # and a dependent one
    cases["zero and duplicate rows"] = mixed
    extra = [int(rng.integers(1 << min(width, 62))) for _ in range(4)]
    extra += [(1 << width) - 1, 0]
    for name, bits in cases.items():
        rowwise, bulk = _bulk_and_rowwise(bits, width)
        assert set(rowwise.pivots) == set(bulk.pivots), name
        assert rowwise.rank == bulk.rank, name
        assert rowwise.kernel_basis() == bulk.kernel_basis(), name
        if name == "full rank":
            assert bulk.rank == width
        if name in ("empty", "rank 0"):
            assert bulk.rank == 0
        # rows added after the load meet the same echelon
        rowwise, bulk = _bulk_and_rowwise(bits, width, extra)
        assert set(rowwise.pivots) == set(bulk.pivots), name
        assert rowwise.kernel_basis() == bulk.kernel_basis(), name


def test_bit_echelon_load_needs_an_empty_echelon_and_the_row_width():
    ech = la._BitEchelon(9)
    with pytest.raises(ValueError):
        ech.load(np.zeros((2, 1), np.uint8))  # 9 columns take 2 bytes
    ech.add(1)
    with pytest.raises(ValueError):
        ech.load(np.zeros((2, 2), np.uint8))


# -- the F_q echelon against the list version it replaced ---------------------


def _rref_rows_fq(data, q, cols):
    """In-place RREF of a list of F_q rows; returns the rank.  The list
    echelon that linalg._fq_rref replaced, kept as its reference."""
    rank = 0
    for j in range(cols):
        src = next((i for i in range(rank, len(data)) if data[i][j]), None)
        if src is None:
            continue
        data[rank], data[src] = data[src], data[rank]
        row = data[rank]
        if row[j] != 1:
            inv = pow(row[j], -1, q)
            data[rank] = row = [(inv * e) % q for e in row]
        for i in range(len(data)):
            a = data[i][j]
            if i != rank and a:
                data[i] = [(e - a * p) % q for e, p in zip(data[i], row)]
        rank += 1
        if rank == len(data):
            break
    return rank


def _ref_rref(q, rows, cols):
    """(RREF rows without the zero ones, pivot columns) by the reference."""
    data = [list(r) for r in rows]
    rank = _rref_rows_fq(data, q, cols)
    return data[:rank], [next(j for j, a in enumerate(r) if a) for r in data[:rank]]


def _ref_kernel(M):
    R, pivots = _ref_rref(M.q, M.data, M.cols)
    basis = []
    for f in (j for j in range(M.cols) if j not in pivots):
        v = [0] * M.cols
        v[f] = 1
        for row, p in zip(R, pivots):
            v[p] = -row[f] % M.q
        basis.append(v)
    return basis


def _ref_matmul(A, B):
    q = A.q
    return [
        [sum(a * brow[j] for a, brow in zip(row, B.data)) % q for j in range(B.cols)]
        for row in A.data
    ]


def _ref_solve(q, rows, cols, b):
    R, pivots = _ref_rref(q, [r + [bb] for r, bb in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for row, p in zip(R, pivots):
        x[p] = row[cols]
    return x


def _fq_cases(q, rng):
    """Seeded F_q matrices of every shape the echelon meets."""
    def rand(r, c):
        return MatFq.random(q, r, c, rng)

    low = MatFq(q, _ref_matmul(rand(7, 2), rand(2, 6)), 6)  # rank at most 2
    dup = rand(5, 5)
    dup = MatFq(q, dup.data[:4] + [dup.data[0]], 5)  # square and singular
    return {
        "0x4": MatFq(q, [], 4),
        "3x0": MatFq(q, [[], [], []], 0),
        "1x1": rand(1, 1),
        "1x1 zero": MatFq.zeros(q, 1, 1),
        "tall": rand(11, 4),
        "wide": rand(4, 11),
        "square": rand(8, 8),
        "rank-deficient": low,
        "singular": dup,
        "identity": MatFq.identity(q, 5),
        "zero": MatFq.zeros(q, 4, 6),
    }


# int16 entries up to q=181, int64 beyond, Python ints past 3 * 10^9
@pytest.mark.parametrize("q", [2, 3, 5, 7, 181, 4099, 2**61 - 1])
def test_fq_echelon_matches_the_list_reference(q):
    rng = make_rng(900 + q)
    for name, M in _fq_cases(q, rng).items():
        R_ref, pivots_ref = _ref_rref(q, M.data, M.cols)
        R, rk, pivots = la.rref(M)
        assert (R.data, rk, pivots) == (R_ref, len(R_ref), pivots_ref), name
        assert la.rank(M) == len(R_ref), name
        assert la.right_kernel(M).data == _ref_kernel(M), name
        for B in (MatFq.random(q, M.cols, 3, rng), MatFq.zeros(q, M.cols, 0),
                  MatFq.identity(q, M.cols)):
            assert (M @ B).data == _ref_matmul(M, B), name
        if M.rows == M.cols:
            aug = [r + [int(i == j) for j in range(M.rows)] for i, r in enumerate(M.data)]
            R_aug, pivots_aug = _ref_rref(q, aug, 2 * M.rows)
            if pivots_aug == list(range(M.rows)):
                assert M.inverse().data == [r[M.rows :] for r in R_aug], name
            else:
                with pytest.raises(ValueError):
                    M.inverse()
        # right-hand sides: M x for a random x (consistent), a random one,
        # and e_0 (inconsistent whenever row 0 of M is zero, as for "zero")
        x = rng.integers(0, q, M.cols).tolist()
        rhs = [[sum(a * b for a, b in zip(r, x)) % q for r in M.data]]
        rhs += [rng.integers(0, q, M.rows).tolist(), [int(i == 0) for i in range(M.rows)]]
        for b in rhs:
            system = np.array([r + [bb] for r, bb in zip(M.data, b)], dtype=np.int64)
            got = la.solve_fq(q, system.reshape(M.rows, M.cols + 1))
            assert got == _ref_solve(q, M.data, M.cols, b), name
        if name == "zero":
            assert got is None
        # the rows as coefficient vectors of F_{q^m} elements, m = M.cols
        if 1 <= M.cols <= 8 and q < 10:
            ctx = field(q, M.cols)
            assert la.rank_fq(ctx, [ctx.encode(r) for r in M.data]) == len(R_ref), name


@pytest.mark.parametrize("q", [3, 5, 7])
def test_fq_kernel_at_odd_q_matches_the_list_reference(q):
    ctx = field(q, 4)
    rng = make_rng(950 + q)
    for rows in (0, 1, 2, 3):
        M = MatFqm.random(ctx, rows, 6, rng)
        expanded = [[ctx.coeffs(a)[t] for a in row] for row in M.data for t in range(ctx.m)]
        want = _ref_kernel(MatFq(q, expanded, 6))
        assert la.fq_kernel(ctx, M.data, 6).data == want
        assert la.expand_fq_system(M).data == expanded


# -- the F_{q^m} echelon against the list version it replaced -----------------


def _rref_rows_fqm(data, ctx, cols):
    """In-place RREF of a list of F_{q^m} rows; returns the rank.  The list
    echelon that linalg._fqm_rref replaced, kept as its reference."""
    rank = 0
    for j in range(cols):
        src = next((i for i in range(rank, len(data)) if data[i][j]), None)
        if src is None:
            continue
        data[rank], data[src] = data[src], data[rank]
        row = data[rank]
        if row[j] != 1:
            data[rank] = row = ctx.mul_row(ctx.inv(row[j]), row)
        for i in range(len(data)):
            if i != rank and data[i][j]:
                ctx.mac_row(data[i], ctx.neg(data[i][j]), row)
        rank += 1
        if rank == len(data):
            break
    return rank


def _ref_fqm_rref(M):
    """(RREF rows without the zero ones, pivot columns) by the reference."""
    data = [list(r) for r in M.data]
    rank = _rref_rows_fqm(data, M.ctx, M.cols)
    return data[:rank], [next(j for j, a in enumerate(r) if a) for r in data[:rank]]


def _ref_fqm_kernel(M):
    ctx = M.ctx
    R, pivots = _ref_fqm_rref(M)
    basis = []
    for f in (j for j in range(M.cols) if j not in pivots):
        v = [0] * M.cols
        v[f] = 1
        for row, p in zip(R, pivots):
            v[p] = ctx.neg(row[f])
        basis.append(v)
    return basis


def _ref_solve_left(A, B):
    """X with X A = B (free variables zero) or None, as solve_left did it:
    the reference RREF of [A^T | B^T]."""
    ctx, k = A.ctx, A.rows
    aug = [[A.data[i][j] for i in range(k)] + [B.data[i][j] for i in range(B.rows)]
           for j in range(A.cols)]
    rank = _rref_rows_fqm(aug, ctx, k + B.rows)
    Xt = [[0] * B.rows for _ in range(k)]
    for row in aug[:rank]:
        p = next(j for j, a in enumerate(row) if a)
        if p >= k:
            return None
        Xt[p] = row[k:]
    return [[Xt[i][b] for i in range(k)] for b in range(B.rows)]


def _fqm_cases(ctx, rng):
    """Seeded F_{q^m} matrices of every shape the echelon meets."""
    def rand(r, c):
        return MatFqm(ctx, [_entries(ctx, rng, c) for _ in range(r)], c)

    low = MatFqm(ctx, _field_product(ctx, rand(7, 2), rand(2, 6)), 6)  # rank at most 2
    reduced, _ = _ref_fqm_rref(rand(4, 9))
    return {
        "0x4": MatFqm(ctx, [], 4),
        "3x0": MatFqm(ctx, [[], [], []], 0),
        "1x1": rand(1, 1),
        "1x1 zero": MatFqm.zeros(ctx, 1, 1),
        "tall": rand(9, 4),
        "wide": rand(4, 9),
        "square": rand(6, 6),
        "rank-deficient": low,
        "zero": MatFqm.zeros(ctx, 4, 6),
        "identity": MatFqm.identity(ctx, 5),
        "in RREF": MatFqm(ctx, reduced, 9),
    }


# odd q stops at m=40: finding or checking a degree-104 modulus over F_3 or
# F_5 takes 10-30 s
@pytest.mark.parametrize(
    "q, m", [(2, 2), (2, 8), (2, 28), (2, 40), (2, 104), (3, 2), (3, 8), (3, 28), (3, 40),
             (5, 2), (5, 8), (5, 28), (5, 40)],
)
def test_fqm_echelon_matches_the_list_reference(q, m):
    ctx = field(q, m)
    rng = make_rng(1000 + 10 * q + m)
    for name, M in _fqm_cases(ctx, rng).items():
        R_ref, pivots_ref = _ref_fqm_rref(M)
        R, rk, pivots = la.rref(M)
        assert (R.data, rk, pivots) == (R_ref, len(R_ref), pivots_ref), name
        assert la.canonical(M).data == R_ref, name
        assert la.rank(M) == len(R_ref), name
        assert la.right_kernel(M).data == _ref_fqm_kernel(M), name
        # X M = B for B = X0 M (consistent), a random B and the unit rows
        # (inconsistent unless M spans them)
        X0 = MatFqm(ctx, [_entries(ctx, rng, M.rows) for _ in range(2)], M.rows)
        rhs = [MatFqm(ctx, _field_product(ctx, X0, M), M.cols),
               MatFqm(ctx, [_entries(ctx, rng, M.cols) for _ in range(3)], M.cols),
               MatFqm.identity(ctx, M.cols)]
        outcomes = []
        for B in rhs:
            want = _ref_solve_left(M, B)
            got = la.solve_left(M, B)
            assert (got if got is None else got.data) == want, name
            outcomes.append(want is None)
        assert outcomes[0] is False, name
        if name in ("zero", "rank-deficient", "wide"):
            assert outcomes[2] is True, name
