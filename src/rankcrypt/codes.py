"""Rank-metric codes as canonical generator matrices.

A Code is an F_{q^m}-subspace of F_{q^m}^n held as the trimmed reduced row
echelon form of a generator matrix, so code equality is matrix equality.

Constructors cover Gabidulin codes Gab_k(g) (Moore matrix on a rank-n
evaluation vector g) and their twisted variants, where hook rows h_j of the
Moore matrix get an extra term eta_j g^[k-1+t_j].  The q-sum
Lambda_i(C) = C + C^[1] + ... + C^[i] is the distinguishing invariant: its
dimension grows by 1 per step for Gabidulin codes, by 1 + ell for twisted
ones, and by k for random codes until saturation.

_qsum_echelon is the one Frobenius loop that builds the q-sums; qsum,
dim_profile and decoder.max_radius all read it.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg as la
from .fields import FieldCtx
from .linalg import MatFqm


class Code:
    """F_{q^m}-linear code, generator kept in canonical (trimmed RREF) form."""

    __slots__ = ("gen",)

    def __init__(self, gen: MatFqm):
        self.gen = la.canonical(gen)

    @property
    def ctx(self) -> FieldCtx:
        return self.gen.ctx

    @property
    def n(self) -> int:
        return self.gen.cols

    @property
    def k(self) -> int:
        return self.gen.rows

    @property
    def pivots(self) -> list[int]:
        """The pivot columns of gen: the leading column of each row."""
        return [next(j for j, a in enumerate(row) if a) for row in self.gen.data]

    def contains(self, v: list[int]) -> bool:
        """Whether v is a codeword: gen is in reduced echelon form, so v is
        in C exactly when v = v[pivots] gen."""
        if len(v) != self.n:
            raise ValueError(f"expected a vector of length {self.n}, got {len(v)}")
        return la.vec_mat(self.ctx, [v[j] for j in self.pivots], self.gen) == list(v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self.gen == other.gen

    def __repr__(self) -> str:
        return f"Code[n={self.n}, k={self.k}, q^m={self.ctx.q}^{self.ctx.m}]"


class TwistParams:
    """Twist data (h, t, eta): hooks, twist exponents, and coefficients.

    Hooks index the generator rows that receive a twist; twist exponent t_j
    lifts the extra monomial to q-degree k-1+t_j.  Basic validity (checked
    against a target (n, k)): h in {0..k-1} strictly increasing, t in
    {1..n-k} pairwise distinct, eta nonzero.
    """

    __slots__ = ("h", "t", "eta")

    def __init__(self, h: list[int], t: list[int], eta: list[int]):
        if not len(h) == len(t) == len(eta):
            raise ValueError("h, t, eta must have equal length")
        self.h = tuple(h)
        self.t = tuple(t)
        self.eta = tuple(eta)

    @property
    def ell(self) -> int:
        return len(self.h)

    def validate(self, n: int, k: int) -> None:
        if any(not 0 <= hj <= k - 1 for hj in self.h):
            raise ValueError("hook outside 0..k-1")
        if any(a >= b for a, b in zip(self.h, self.h[1:])):
            raise ValueError("hooks must be strictly increasing")
        if any(not 1 <= tj <= n - k for tj in self.t):
            raise ValueError("twist exponent outside 1..n-k")
        if len(set(self.t)) != len(self.t):
            raise ValueError("twist exponents must be distinct")
        if any(e == 0 for e in self.eta):
            raise ValueError("twist coefficient zero")

    def __repr__(self) -> str:
        return f"TwistParams(h={list(self.h)}, t={list(self.t)}, eta={list(self.eta)})"


def moore_matrix(ctx: FieldCtx, g: list[int], k: int) -> MatFqm:
    """k x n matrix with rows g, g^[1], ..., g^[k-1]."""
    n = len(g)
    if la.rank_fq(ctx, g) != n:
        raise ValueError("evaluation vector must have F_q-independent coordinates")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    powers = la._frob_digits(ctx, la._coeff_digits(ctx, g), range(k))  # [j, i]: g_j^[i]
    return la._from_matrix_digits(ctx, powers.transpose(1, 0, 2))


def gabidulin(ctx: FieldCtx, g: list[int], k: int) -> Code:
    n = len(g)
    if not k < n <= ctx.m:
        raise ValueError("need k < n <= m")
    return Code(moore_matrix(ctx, g, k))


def twisted_moore_matrix(ctx: FieldCtx, g: list[int], k: int, tw: TwistParams) -> MatFqm:
    """Moore matrix with row h_j carrying the extra term eta_j g^[k-1+t_j]."""
    n = len(g)
    tw.validate(n, k)
    rows = moore_matrix(ctx, g, k).data
    powers = la._frob_digits(ctx, la._coeff_digits(ctx, g), [k - 1 + tj for tj in tw.t])
    extra = la._from_matrix_digits(ctx, powers.transpose(1, 0, 2))  # rows g^[k-1+t_j]
    for hj, ej, row in zip(tw.h, tw.eta, extra.data):
        ctx.mac_row(rows[hj], ej, row)
    return MatFqm(ctx, rows, n)


def twisted_gabidulin(ctx: FieldCtx, g: list[int], k: int, tw: TwistParams) -> Code:
    n = len(g)
    if not k < n <= ctx.m:
        raise ValueError("need k < n <= m")
    C = Code(twisted_moore_matrix(ctx, g, k, tw))
    if C.k != k:
        raise ValueError("twist parameters degenerate: dimension dropped")
    return C


def sample_hooks(k: int, ell: int, rng) -> list[int]:
    """Strictly increasing hooks 0 < h_1 < ... < h_ell < k-1 with gaps > 1,
    uniform among valid sequences by rejection."""
    if ell == 0:
        return []
    if k <= 2 * ell + 2:
        raise ValueError("k too small for gap-respecting hooks")
    for _ in range(10000):
        hs = sorted(int(v) for v in rng.integers(1, k - 1, size=ell))
        if len(set(hs)) == ell and all(b - a > 1 for a, b in zip(hs, hs[1:])):
            return hs
    raise RuntimeError("hook sampling failed")


def prw_parameters(ctx: FieldCtx, n: int, k: int, ell: int, rng) -> TwistParams:
    """Twist parameters in the regime where the decoder still works:
    t_j = j(delta+1) with delta = (n-k-ell)/(ell+1), gap-respecting hooks,
    nonzero eta.

    Requires (ell+1) | (n-k-ell); non-integral delta is rejected rather
    than rounded.
    """
    if ell == 0:
        return TwistParams([], [], [])
    if ell < 0 or k <= 2 * ell + 2:
        raise ValueError("infeasible (k, ell)")
    if (n - k - ell) % (ell + 1) != 0 or n - k - ell < 0:
        raise ValueError("delta = (n-k-ell)/(ell+1) is not a nonnegative integer")
    delta = (n - k - ell) // (ell + 1)
    t = [j * (delta + 1) for j in range(1, ell + 1)]
    h = sample_hooks(k, ell, rng)
    eta = [ctx.random_nonzero(rng) for _ in range(ell)]
    return TwistParams(h, t, eta)


def _qsum_echelon(C: Code):
    """Yield the reduced echelon forms of Lambda_0(C), Lambda_1(C), ... in
    turn, as coefficient digits (rank, n, m) (linalg._matrix_digits), up
    to the first saturated one (rank n): no Frobenius work is done past
    saturation.  Read each before advancing: the next step writes to it.

    Only the rows that enlarged the last q-sum are raised to the power q.
    With D_0 the rows of C and Lambda_i = Lambda_{i-1} + span(D_i),
    Lambda_{i+1} = C + Lambda_i^[1] = C + Lambda_{i-1}^[1] + span(D_i^[1])
    = Lambda_i + span(D_i^[1]).  A row of the echelon form E of Lambda_i is
    the identity at the pivot columns, so each step works on the free
    columns: D_i^[1] (linalg._frob_digits) less its pivot entries times E
    (one product) is what lies outside Lambda_i; its reduced echelon form
    (linalg._fqm_rref) gives D_{i+1}; their pivot columns are cleared from
    E (one product on the columns left free), and the rows are merged by
    pivot column."""
    ctx, n, q = C.ctx, C.n, C.ctx.q
    E = la._matrix_digits(ctx, C.gen)  # C.gen is in reduced echelon form
    pivots = C.pivots
    new = E
    while True:
        yield E
        if len(pivots) == n:
            return
        taken = set(pivots)
        free = [j for j in range(n) if j not in taken]
        F = la._frob_digits(ctx, new, [1])[..., 0, :]
        R = F[:, free]
        if pivots:
            inside = la._clmul_planes(ctx, F[:, pivots], E[:, free]).transpose(1, 2, 0)
            R = la._sub_digits(R, inside, q)
        found = la._fqm_rref(ctx, R)  # indices into free
        R = R[: len(found)]
        new = np.zeros((len(found), n, ctx.m), dtype=E.dtype)
        new[:, free] = R
        if found:
            added = [free[f] for f in found]
            left = [f for f in range(len(free)) if f not in found]
            cols = [free[f] for f in left]
            update = la._clmul_planes(ctx, E[:, added], R[:, left]).transpose(1, 2, 0)
            E[:, cols] = la._sub_digits(E[:, cols], update, q)
            E[:, added] = 0
            pivots = pivots + added
            E = np.concatenate([E, new])[np.argsort(pivots)]
            pivots = sorted(pivots)


def qsum(C: Code, i: int) -> Code:
    """Lambda_i(C) = C + C^[1] + ... + C^[i]."""
    if i < 0:
        raise ValueError("i must be >= 0")
    for E in itertools.islice(_qsum_echelon(C), i + 1):
        pass
    return Code(la._from_matrix_digits(C.ctx, E))


def dim_profile(C: Code, i_max: int) -> list[int]:
    """[dim Lambda_i(C) for i = 0..i_max]; constant n once saturated."""
    if i_max < 0:
        raise ValueError("i_max must be >= 0")
    dims = [len(E) for E in itertools.islice(_qsum_echelon(C), i_max + 1)]
    return dims + [C.n] * (i_max + 1 - len(dims))


def classify(C: Code):
    """Heuristic label from the first q-sum increment d = dim Lambda_1 - k:
    d <= 1 looks Gabidulin, d >= k looks random, anything between looks
    twisted with ell ~ (d-1)/2 twists.  Returns (label, ell_estimate)."""
    profile = dim_profile(C, 1)
    d1 = profile[1] - profile[0]
    if d1 <= 1:
        return "gabidulin_like", 0
    if d1 >= C.k:
        return "random_like", None
    return "twisted_like", (d1 - 1) // 2


def dual(C: Code) -> Code:
    """Dual under the canonical inner product; dimension n - k."""
    return Code(la.right_kernel(C.gen))


def closure(C: Code, s: int) -> Code:
    """Largest code C' with Lambda_s(C') = Lambda_s(C): the intersection of
    the shifts Lambda_s(C)^[-j] for j = 0..s."""
    if s < 1:
        raise ValueError("s must be >= 1")
    L = qsum(C, s)
    acc = L.gen
    for j in range(1, s + 1):
        acc = la.space_intersect(acc, L.gen.frob(-j))
    return Code(acc)


def random_code(ctx: FieldCtx, n: int, k: int, rng) -> Code:
    """Uniform [n, k] code: a random full-rank generator, canonicalized."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    return Code(la._resample(lambda: MatFqm.random(ctx, k, n, rng), lambda G: la.rank(G) == k))
