"""Key-recovery attacks on GPT from public data only.

Three layers:

  * the q-sum distinguisher (dim_profile in the codes module) separates
    Gabidulin, twisted and random public codes;
  * the classic column-scrambler recovery: when the distortion fills all
    lambda extra coordinates after one q-sum, the F_q-kernel of the dual
    of Lambda_i(C_pub) exposes a valid scrambler T, and c A is decodable
    for A the last n columns of T^-1;
  * the stabilizer-algebra attack for the low-rank-distortion case where
    the classic dual-dimension test fails: Lambda_i(C_pub) splits, its
    right stabilizer {M over F_q : Lambda_i(C_pub) M <= Lambda_i(C_pub)}
    has dimension 2, and the rank-n idempotent F it contains projects the
    public code onto a decodable image with the distortion wiped out.

The stabilizer is the kernel of G M H^T = 0 over F_q: k'(N-k')m equations
in N^2 unknowns after coordinate expansion, for an [N, k'] code.  Most of
those rows are redundant, so the kernel is first taken of ceil(N^2/m)
seeded rank-one probes (uG) (x) (vH), m rows each, with u and v drawn from
a fixed stream; their rows are F_q combinations of the full system's, so
that kernel contains the stabilizer.  Every candidate in it is then checked
exactly against G M H^T = 0, through the identity blocks of G and H; a
candidate that fails names a violated pair (a, b), whose rows g_a (x) h_b
are added, which removes at least one kernel dimension, and the kernel is
taken again.  When every candidate passes, the kernel is the full
system's, and so is its canonical basis.

No F_{q^m} arithmetic is done on the way.  The probes, uG and vH are held
as base-q coefficient digits, and every product (the other blocks of uG
and vH, each probe, each witness g_a (x) h_b and the check) is
linalg._clmul_planes: exact float32 BLAS products against a Toeplitz
layout, then against the table of x^s mod f, read mod q.  Only the kernel
depends on q (_FqRows): at q=2 the rows are packed into bytes and go to
the F_2 echelon in one bulk load (_BitEchelon.load, one byte of columns
per step), at odd q to the numpy F_q echelon (linalg._fq_kernel).

Both attacks end the same way (_decode_and_recover): the map A they found
(F, or the last n columns of T^-1) makes a decryption plan out of G_pub A,
as the key holder's plan is made out of S G_sec (gpt.make_plan), and the
plan decodes c A and reads the message off.  One elimination of
[G_pub A | I_k] (codes.code_and_transform) gives the plan its code and its
readout.

Nothing here reads secret keys.  Success is verified publicly: the
recovered message must re-encode to within rank t of the ciphertext.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field

from . import linalg as la
from .codes import Code, code_and_transform, qsum
from .decoder import prepare
from .gpt import DecryptError, GptPublicKey, make_plan
from .linalg import MatFq
from .rng import make_rng

# numpy comes after the package modules: imported first, it would load
# before linalg is compiled, and without a bytecode cache the freed compile
# memory then stays resident (about 1 MB of peak RSS)
import numpy as np  # noqa: E402


class AttackError(RuntimeError):
    pass


@dataclass
class StabilizerAlgebra:
    n_total: int
    basis: list[MatFq]
    rows_fed: int = 0  # F_q rows fed to the kernel solver (not serialized)

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class AttackReport:
    mode: str  # extension | overbeck_classic
    success: bool
    recovered: list[int] | None = None
    failure: str | None = None
    i_used: int | None = None
    stab_dim: int | None = None
    F: MatFq | None = None
    timings_ms: dict = field(default_factory=dict)


# -- stabilizer computation -------------------------------------------------


# The probes are drawn from this stream, afresh for every stabilizer.
_PROBE_SEED = 0x5AB1


def stabilizer(C: Code) -> StabilizerAlgebra:
    """Right stabilizer Stab_r(C) = {M over F_q : C M <= C}: the F_q kernel
    of G M H^T = 0, one F_{q^m} constraint g_a (x) h_b per row pair of G and
    H, on the entries of M in row-major order.

    The kernel of ceil(N^2/m) rank-one probes (uG) (x) (vH), u and v dense
    and drawn from the _PROBE_SEED stream, is checked candidate by candidate
    against G M H^T = 0, and each violated pair (a, b) adds the rows of
    g_a (x) h_b until every candidate passes.  All products are computed on
    coefficient digit planes by linalg._clmul_planes.  The basis is the full
    system's canonical kernel basis (one vector per free column, in column
    order); rows_fed counts the F_q rows fed.
    """
    ctx, N = C.ctx, C.n
    G = C.gen
    H = la.right_kernel(G)
    # G is in reduced echelon form and H = right_kernel(G), so G has the
    # identity at its pivot columns and H at the others
    pivots = C.pivots
    free = sorted(set(range(N)) - set(pivots))
    Gd, Hd = la._matrix_digits(ctx, G), la._matrix_digits(ctx, H)
    system = _FqRows(ctx.q, N * N)
    if G.rows and H.rows:
        for block in _probe_rows(ctx, Gd, Hd, pivots, free):
            system.add(block)
    violation = _violation_finder(ctx, Gd, Hd, pivots, free)
    while True:
        kernel = system.kernel()
        pairs = {pair for v in kernel if (pair := violation(v)) is not None}
        if not pairs:
            break
        for a, b in sorted(pairs):
            system.add(la._clmul_planes(ctx, Gd[a][:, None], Hd[b][None]).reshape(ctx.m, N * N))
    basis = [MatFq(ctx.q, v.reshape(N, N).tolist(), N) for v in kernel]
    return StabilizerAlgebra(N, basis, system.rows)


class _FqRows:
    """F_q rows of one width, added in blocks of coefficient digits, and the
    kernel of all of them: the one step of the stabilizer that depends on q.
    At q=2 each block is packed 8 columns to a byte as it is added, and the
    kernel is taken by the F_2 echelon's bulk load; at odd q by the numpy
    F_q echelon."""

    def __init__(self, q: int, width: int):
        self.q, self.width = q, width
        self.blocks: list[np.ndarray] = []
        self.rows = 0

    def add(self, block: np.ndarray) -> None:
        self.rows += len(block)
        self.blocks.append(np.packbits(block, axis=1, bitorder="little") if self.q == 2 else block)

    def kernel(self) -> np.ndarray:
        """The kernel basis, one row of F_q digits per free column of the
        echelon: 1 there and 0 at the other free columns, in column order."""
        q, width = self.q, self.width
        if q != 2:
            A = np.concatenate([np.zeros((0, width), dtype=np.uint8), *self.blocks])
            return la._fq_kernel(la._fq_array(q, A, width), q)
        nbytes = -(-width // 8)
        ech = la._BitEchelon(width)
        ech.load(np.concatenate([np.zeros((0, nbytes), dtype=np.uint8), *self.blocks]))
        raw = b"".join(v.to_bytes(nbytes, "little") for v in ech.kernel_basis())
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, nbytes)
        return np.unpackbits(packed, axis=1, bitorder="little")[:, :width]


def _probe_rows(ctx, Gd: np.ndarray, Hd: np.ndarray, pivots: list[int], free: list[int]):
    """The m F_q rows of each of the ceil(N^2/m) probes (uG) (x) (vH), one
    (m, N^2) block per probe, from the coefficient digits Gd and Hd of G
    and H.  Everything stays in digit planes: uG is u at the pivot columns
    and u times the other block of G elsewhere, vH is v at the free
    columns, and both products and the probes themselves go through
    linalg._clmul_planes."""
    q, m = ctx.q, ctx.m
    k, N = Gd.shape[:2]
    count = -(-N * N // m)
    UV = make_rng(_PROBE_SEED).integers(0, q, (count, N, m), dtype=la._digit_dtype(q))
    X = np.empty_like(UV)  # uG
    X[:, pivots] = UV[:, :k]
    X[:, free] = la._clmul_planes(ctx, UV[:, :k], Gd[:, free]).transpose(1, 2, 0)
    Y = np.empty_like(UV)  # vH
    Y[:, free] = UV[:, k:]
    Y[:, pivots] = la._clmul_planes(ctx, UV[:, k:], Hd[:, pivots]).transpose(1, 2, 0)
    for p in range(count):
        yield la._clmul_planes(ctx, X[p][:, None], Y[p][None]).reshape(m, N * N)


def _violation_finder(ctx, Gd: np.ndarray, Hd: np.ndarray, pivots: list[int], free: list[int]):
    """A function taking M over F_q, as its N^2 entries in row-major order,
    to the first pair (a, b) with g_a M h_b^T != 0, or to None; Gd and Hd
    are the coefficient digits of G and H.

    With L the one of G and H with fewer columns outside its identity block
    and R the other, L M' R^T (M' = M or M^T) is Y at the identity columns
    plus the rest of L times Y, where Y = M' R^T is F_q combinations of
    columns of R (linalg._fq_matmul), and the rest of L times Y is one
    linalg._clmul_planes product: about k'(N-k') min(k', N-k') products
    for a [N, k'] code.
    """
    q, m = ctx.q, ctx.m
    N = Gd.shape[1]
    direct = len(Hd) <= len(Gd)  # L = G, else L = H and M' = M^T
    L, R, ident, rest = (Gd, Hd, pivots, free) if direct else (Hd, Gd, free, pivots)
    width = len(R)
    Rt = R.transpose(1, 0, 2).reshape(N, width * m)
    Lrest = L[:, rest]

    def violation(v: np.ndarray):
        M = v.reshape(N, N)
        Y = la._fq_matmul(M if direct else M.T, Rt, q).reshape(N, width, m)
        acc = (Y[ident] + la._clmul_planes(ctx, Lrest, Y[rest]).transpose(1, 2, 0)) % q
        hits = np.flatnonzero(acc.any(axis=2))
        if not hits.size:
            return None
        a, b = divmod(int(hits[0]), width)
        return (a, b) if direct else (b, a)

    return violation


# -- idempotent extraction --------------------------------------------------


def _idempotent_from(R: MatFq) -> MatFq | None:
    """nu R when R^2 = c R for some c in F_q*, else None."""
    q = R.q
    S = R @ R
    if S.is_zero():
        return None
    c = None
    for ru, su in zip(R.data, S.data):
        for a, b in zip(ru, su):
            if a:
                c = (b * pow(a, -1, q)) % q
                break
        if c is not None:
            break
    if not c:
        return None
    if S != R.scale(c):
        return None
    return R.scale(pow(c, -1, q))


# All basis pairs are examined up to this many basis elements; past this
# (only the full matrix algebra in practice) the search stays quadratic in
# the cap rather than in N^2.
_PAIR_SEARCH_CAP = 128


def _pencil(alg: StabilizerAlgebra):
    """For each pair U, V of the first _PAIR_SEARCH_CAP basis elements, the
    q+1 projective directions V, U + xV of the pencil they span."""
    q = alg.basis[0].q
    for U, V in itertools.combinations(alg.basis[:_PAIR_SEARCH_CAP], 2):
        yield V
        for x in range(q):
            yield U + V.scale(x)


def find_rank_n_idempotent(alg: StabilizerAlgebra, n: int) -> MatFq:
    """The projection of rank n inside a split stabilizer.

    For the expected dimension-2 algebra span{U, V}, some direction
    U + xV (or V itself) is singular; rescaled it is idempotent of rank n
    or N-n, and in the latter case the complement I - F is returned.
    """
    if alg.dim < 2:
        raise AttackError("stabilizer_trivial")
    N = alg.n_total
    q = alg.basis[0].q
    saw_singular = saw_idem = False
    for R in _pencil(alg):
        if la.rank(R) == N:
            continue
        saw_singular = True
        F = _idempotent_from(R)
        if F is None:
            continue
        saw_idem = True
        r = la.rank(F)
        if r == n:
            return F
        if r == N - n:
            return MatFq.identity(q, N) - F
    if alg.dim > 2:
        raise AttackError(
            "general_decomposition_required: stabilizer dimension "
            f"{alg.dim} > 2 needs the Friedl-Ronyai algebra decomposition, "
            "which is not implemented"
        )
    if not saw_singular:
        raise AttackError("no_singular_element")
    if not saw_idem:
        raise AttackError("no_idempotent_direction")
    raise AttackError("idempotent_rank_mismatch")


# -- end-to-end attacks ------------------------------------------------------


@contextlib.contextmanager
def _phase(tm: dict, name: str):
    """Add the wall time of the block, in milliseconds, to tm[name]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        tm[name] += (time.perf_counter() - t0) * 1e3


def _decode_and_recover(pk: GptPublicKey, c: list[int], A: MatFq, tm: dict):
    """Decrypt c through the plan of the map A, G_pub A and its code at
    radius t, and accept the message m only when c - m G_pub has rank at
    most t.  Returns (m, None) or (None, failure reason); the plan's time
    goes to tm["decode"], the check's to tm["recover"]."""
    ctx, k, t = pk.params.ctx, pk.params.k, pk.params.t
    with _phase(tm, "decode"):
        G = pk.G_pub @ A
        C, readout = code_and_transform(G)
        if C.k < k:
            return None, "projected_generator_rank_deficient"
        try:
            msg = make_plan(A, G, prepare(C, t), readout).decrypt(c)
        except DecryptError as ex:
            return None, "decode_" + ex.status
    with _phase(tm, "recover"):
        resid = [ctx.sub(a, b) for a, b in zip(c, la.vec_mat(ctx, msg, pk.G_pub))]
        if la.rank_fq(ctx, resid) > t:
            return None, "verification_failed"
    return msg, None


def attack_extension(pk: GptPublicKey, c: list[int], i_max: int | None = None) -> AttackReport:
    """Stabilizer attack: split Lambda_i(C_pub), project by the rank-n
    idempotent, decode the projected ciphertext, verify by re-encoding."""
    params = pk.params
    n, k = params.n, params.k
    N = n + params.lam
    if len(c) != N:
        raise ValueError("ciphertext length mismatch")
    if i_max is None:
        i_max = max(1, n - k - 1)
    if i_max < 1:
        raise ValueError(f"i_max must be at least 1, got {i_max}")
    tm = {"qsum": 0.0, "stabilizer": 0.0, "idempotent": 0.0, "decode": 0.0, "recover": 0.0}
    C_pub = Code(pk.G_pub)
    failure = "no_split_found"
    stab_dim = None
    for i in range(1, i_max + 1):
        with _phase(tm, "qsum"):
            L = qsum(C_pub, i)
        if L.k == N:
            failure = "qsum_saturated"
            break
        with _phase(tm, "stabilizer"):
            alg = stabilizer(L)
        stab_dim = alg.dim
        if alg.dim < 2:
            failure = "stabilizer_trivial"
            continue
        try:
            with _phase(tm, "idempotent"):
                F = find_rank_n_idempotent(alg, n)
        except AttackError as ex:
            failure = str(ex)
            continue
        msg, failure = _decode_and_recover(pk, c, F, tm)
        if msg is not None:
            return AttackReport("extension", True, msg, None, i, alg.dim, F, tm)
    return AttackReport("extension", False, None, failure, None, stab_dim, None, tm)


def attack_overbeck(pk: GptPublicKey, c: list[int], rng, i: int = 1) -> AttackReport:
    """Classic column-scrambler recovery.

    Requires the distortion to vanish from the dual of Lambda_i(C_pub):
    the dual dimension must be n - dim Lambda_i of the secret code (for
    Gabidulin n-k-i), else the distortion is still in the way and the
    attack reports distortion_not_eliminated."""
    params = pk.params
    ctx, n, k, lam = params.ctx, params.n, params.k, params.lam
    ell = params.ell
    N = n + lam
    if len(c) != N:
        raise ValueError("ciphertext length mismatch")
    if i < 1:
        raise ValueError(f"q-sum exponent i must be at least 1, got {i}")
    tm = {"qsum": 0.0, "scrambler": 0.0, "decode": 0.0, "recover": 0.0}

    def fail(reason: str) -> AttackReport:
        return AttackReport("overbeck_classic", False, failure=reason, i_used=i, timings_ms=tm)

    with _phase(tm, "qsum"):
        L = qsum(Code(pk.G_pub), i)
        H_pub = la.right_kernel(L.gen)
    expected = n - min(k + i + ell * (i + 1), n)
    if H_pub.rows != expected:
        return fail(f"distortion_not_eliminated: dual dimension {H_pub.rows}, expected {expected}")
    with _phase(tm, "scrambler"):
        W = la.fq_kernel(ctx, H_pub.data, N)
        if W.rows != lam:
            return fail(f"scrambler_kernel_dimension {W.rows} != lambda {lam}")
        for _ in range(la._RESAMPLE_CAP):
            T = W.vstack(MatFq.random(ctx.q, n, N, rng))
            if la.rank(T) == N:
                break
        else:
            return fail("no_invertible_completion")
    # T^-1 without its first lambda columns strips the distortion block
    A = MatFq(ctx.q, [row[lam:] for row in T.inverse().data], n)
    msg, failure = _decode_and_recover(pk, c, A, tm)
    if failure is not None:
        return fail(failure)
    return AttackReport("overbeck_classic", True, msg, None, i, None, None, tm)
