"""Rank decoder that never sees the evaluation sequence, plus a support
enumeration oracle for tiny instances.

decode() works from generator matrices alone.  Step 1 finds a nonzero
linearized polynomial P of q-degree <= t with H_t P(y)^T = 0, H_t a parity
check of Lambda_t(C); any such P annihilates the error when the radius
condition dim Lambda_t(C) + t <= n holds.  Step 2 writes the error with
coordinates confined to ker(P) and solves the resulting F_q system against
the parity check H of C.  Step 1's powers y, y^q, ..., y^{q^t} are one
product with the cached matrices of the Frobenius (linalg._frob_digits),
its product H_t (y, y^q, ...)^T runs on coefficient digit planes
(MatFqm @) and its kernel on the digit-plane echelon; step 2 evaluates P
on the same digit planes (LinPoly.evaluate_vec) and builds its F_q
system with no F_{q^m} arithmetic, as one digit-plane product of ker(P)'s
basis by the entries of H, for every q; linalg.solve_fq then bulk-loads
it into the F_2 echelon at q=2 and reduces it with the numpy F_q echelon
at odd q.
What the pair of steps actually decodes is the t-closure of C; for
Gabidulin codes and radii below (n-k)/2 that closure is C itself.

decode(C, y, t) is prepare(C, t).decode(y): prepare computes H and H_t,
which depend on C and t only, and PreparedCode.decode runs both steps on
one word.  A caller that decodes many words in one code, such as a GPT
secret key, prepares it once.

brute_force_decode() enumerates every candidate support (an r-dimensional
F_q-subspace of F_{q^m}, r <= t) in a fixed order and solves for an error
vector confined to it, returning the first hit, i.e. the minimal-rank
solution with lexicographically least support basis.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .codes import Code, _echelon_code, _qsum_echelon, qsum
from .fields import FieldCtx
from .linalg import MatFq, MatFqm
from .qpoly import LinPoly

_WORK_CAP = 1 << 22  # brute-force budget: sum over supports of r*n


@dataclass
class DecodeResult:
    status: str  # decoded | no_annihilator | no_error_solution
    codeword: list[int] | None = None
    error: list[int] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "decoded"


def max_radius(
    C: Code, return_qsum: bool = False, t: int | None = None
) -> int | tuple[int, Code | None]:
    """Largest t with dim Lambda_t(C) + t <= n, measured directly.

    For an [n, k] Gabidulin code this is floor((n-k)/2).  The walk passes
    every Lambda_t(C) up to the radius; with return_qsum the result is
    (radius, L), L the q-sum Lambda_t(C) as a Code at the given t, or at the
    radius when t is None, and None when t exceeds the radius."""
    best, kept = 0, None
    for i, E in enumerate(_qsum_echelon(C)):
        if len(E) + i > C.n:  # by i = n+1 at the latest: a zero code never saturates
            break
        best = i
        if return_qsum and (t is None or i == t):
            kept = E.copy()  # the walk's next step writes to E
    if not return_qsum:
        return best
    return best, None if kept is None else _echelon_code(C.ctx, kept)


@dataclass(frozen=True)
class PreparedCode:
    """A code made ready for decoding at radius t: everything decode()
    derives from the generator matrix alone, H a parity check of C and
    Ht one of Lambda_t(C)."""

    C: Code
    t: int
    H: MatFqm
    Ht: MatFqm

    def decode(self, y: list[int]) -> DecodeResult:
        """Decode y against C at rank radius t; see decode()."""
        ctx, n, t, H = self.C.ctx, self.C.n, self.t, self.H
        if len(y) != n:
            raise ValueError("length mismatch")
        syndrome = la.mat_vec(ctx, H, y)

        # step 1: H_t P(y)^T = 0 is F_{q^m}-linear in the coefficients of P
        shifts = la._frob_digits(ctx, la._coeff_digits(ctx, y), range(t + 1))  # [c, i]: y_c^[i]
        A = self.Ht @ la._from_matrix_digits(ctx, shifts)
        pkernel = la.right_kernel(A)
        if pkernel.rows == 0:
            return DecodeResult("no_annihilator")

        for pcoeffs in pkernel.data:
            hit = _error_over_kernel(ctx, H, y, syndrome, LinPoly(ctx, pcoeffs))
            if hit is not None:
                return DecodeResult("decoded", *hit)
        return DecodeResult("no_error_solution")


def prepare(C: Code, t: int, Lt: Code | None = None) -> PreparedCode:
    """The parity checks decode() needs for C at radius t; Lt, when given,
    is Lambda_t(C) (as max_radius returns it), which is then not built
    again."""
    if t < 1:
        raise ValueError("radius must be >= 1")
    Ht = la.right_kernel((qsum(C, t) if Lt is None else Lt).gen)
    return PreparedCode(C, t, la.right_kernel(C.gen), Ht)


def decode(C: Code, y: list[int], t: int) -> DecodeResult:
    """Decode y against C at rank radius t: prepare(C, t).decode(y).

    Step 2 is tried with each vector of the step-1 kernel basis in turn.
    Returns no_annihilator when step 1 admits only P = 0 and
    no_error_solution when no error over ker(P) matches the syndrome for
    any of them.
    """
    return prepare(C, t).decode(y)


def _error_over_kernel(ctx, H, y, syndrome, P):
    """Step 2: solve H(y-e)^T = 0 with every e_i confined to ker(P)."""
    kappa = P.kernel()
    if not kappa:
        if any(syndrome):
            return None
        return list(y), [0] * len(y)
    e = _error_over_support(ctx, H, syndrome, kappa, len(y))
    if e is None:
        return None
    return [ctx.sub(yc, ec) for yc, ec in zip(y, e)], e


def _error_over_support(ctx, H, syndrome, kappa, n):
    """Error e of length n with every e_i in span_Fq(kappa) and
    H e^T = syndrome, free variables zero; None if there is none.

    Unknown c*r + rho is the F_q coefficient of kappa[rho] in e_c.  The F_q
    system is built on coefficient digit planes (_step_two_system) and
    solved by linalg.solve_fq; e is then kappa times the r x n matrix of
    the solution."""
    r = len(kappa)
    x = la.solve_fq(ctx.q, _step_two_system(ctx, H, syndrome, kappa))
    if x is None:
        return None
    return la.vec_mat(ctx, kappa, MatFq(ctx.q, [x[rho::r] for rho in range(r)], n))


def _step_two_system(ctx, H, syndrome, kappa) -> np.ndarray:
    """Step 2's augmented F_q system [A | b], with no F_{q^m} arithmetic.
    Row j m + t (expand_fq_system's order) holds coefficient t of
    kappa[rho] H[j][c] in column c r + rho and coefficient t of syndrome[j]
    in column n r: one linalg._clmul_planes product of kappa by the
    entries of H."""
    m, r = ctx.m, len(kappa)
    nk, n = H.rows, H.cols
    planes = la._clmul_planes(  # planes[t, rho, j n + c]
        ctx, la._coeff_digits(ctx, kappa)[:, None], la._matrix_digits(ctx, H).reshape(1, nk * n, m)
    )
    system = np.empty((nk, m, n * r + 1), dtype=planes.dtype)
    system[:, :, : n * r] = planes.reshape(m, r, nk, n).transpose(2, 0, 3, 1).reshape(nk, m, n * r)
    system[:, :, n * r] = la._coeff_digits(ctx, syndrome)
    return system.reshape(nk * m, n * r + 1)


# -- support-enumeration oracle -------------------------------------------


def gaussian_binomial(m: int, r: int, q: int) -> int:
    """Number of r-dimensional F_q-subspaces of F_q^m."""
    if not 0 <= r <= m:
        return 0
    num = den = 1
    for i in range(r):
        num *= q**m - q**i
        den *= q**r - q**i
    return num // den


@functools.lru_cache(maxsize=8)
def _subspace_bases(q: int, m: int, r: int) -> tuple:
    """All r-dimensional subspaces of F_q^m as canonical RREF bases (rows
    base-q packed to ints, pivot order), sorted lexicographically."""
    if r == 0:
        return ((),)
    out = []
    for pivots in itertools.combinations(range(m), r):
        pivset = set(pivots)
        slots = [
            (i, j) for i in range(r) for j in range(pivots[i] + 1, m) if j not in pivset
        ]
        for counter in range(q ** len(slots)):
            rows = [q ** pivots[i] for i in range(r)]
            v = counter
            for i, j in slots:
                v, d = divmod(v, q)
                rows[i] += d * q**j
            out.append(tuple(rows))
    out.sort()
    return tuple(out)


def brute_force_decode(C: Code, y: list[int], t: int) -> DecodeResult:
    """Minimal-rank decoding by exhausting supports of dimension <= t."""
    ctx, n, q, m = C.ctx, C.n, C.ctx.q, C.ctx.m
    if len(y) != n:
        raise ValueError("length mismatch")
    work = sum(gaussian_binomial(m, r, q) * max(1, r * n) for r in range(t + 1))
    if work > _WORK_CAP:
        raise ValueError(f"support enumeration needs {work} > {_WORK_CAP} work units")
    H = la.right_kernel(C.gen)
    syndrome = la.mat_vec(ctx, H, y)
    if not any(syndrome):
        return DecodeResult("decoded", list(y), [0] * n)
    solver = _BitSupportSolver(ctx, H, syndrome) if q == 2 else None
    for r in range(1, t + 1):
        for basis in _subspace_bases(q, m, r):
            if solver is not None:
                e = solver.solve(basis)
            else:
                e = _error_over_support(ctx, H, syndrome, list(basis), n)
            if e is not None:
                codeword = [ctx.sub(yc, ec) for yc, ec in zip(y, e)]
                return DecodeResult("decoded", codeword, e)
    return DecodeResult("no_error_solution")


class _BitSupportSolver:
    """q=2 fast path for the per-support solve.

    The map e -> H e^T is F_2-linear, so it is determined by its value on
    the nm unit errors (basis element x^beta at coordinate c).  Those
    values are packed into bit columns once; the system for a given
    support is then assembled by XOR and solved by a tagged echelon whose
    tag bits carry the solution combination.
    """

    def __init__(self, ctx: FieldCtx, H, syndrome):
        self.n = H.cols
        self.m = ctx.m
        self.width = H.rows * ctx.m  # constraint bits per column
        # phi[c][beta]: H's reaction to error x^beta at coordinate c
        self.phi = []
        for c in range(self.n):
            cols = []
            for beta in range(ctx.m):
                v = 0
                for j, hrow in enumerate(H.data):
                    img = ctx.mul(hrow[c], 1 << beta)
                    v |= img << (j * ctx.m)  # q=2: encoding bits = coefficients
                cols.append(v)
            self.phi.append(cols)
        b = 0
        for j, s in enumerate(syndrome):
            b |= s << (j * ctx.m)
        self.rhs = b

    def solve(self, basis: tuple) -> list[int] | None:
        """Error vector with coordinates in span(basis), or None."""
        n, W = self.n, self.width
        r = len(basis)
        wmask = (1 << W) - 1
        pivots: dict[int, int] = {}
        # tagged columns: tag bit W + c*r + rho marks the unknown a_{c,rho}
        tag = 1 << W
        for c in range(n):
            phic = self.phi[c]
            for v in basis:
                col = 0
                vv = v
                while vv:
                    beta = (vv & -vv).bit_length() - 1
                    col ^= phic[beta]
                    vv &= vv - 1
                col |= tag
                tag <<= 1
                low = col & wmask
                while low:
                    j = (low & -low).bit_length() - 1
                    p = pivots.get(j)
                    if p is None:
                        pivots[j] = col
                        break
                    col ^= p
                    low = col & wmask
        res = self.rhs
        low = res & wmask
        while low:
            j = (low & -low).bit_length() - 1
            p = pivots.get(j)
            if p is None:
                return None
            res ^= p
            low = res & wmask
        x = res >> W
        e = []
        for c in range(n):
            acc = 0
            for rho in range(r):
                if (x >> (c * r + rho)) & 1:
                    acc ^= basis[rho]
            e.append(acc)
        return e
