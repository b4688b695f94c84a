"""The GPT public-key encryption scheme over rank-metric codes.

Key generation hides a secret Gabidulin (or twisted Gabidulin) generator
G_sec inside G_pub = S (X | G_sec) P: S is an invertible matrix over
F_{q^m}, X a random k x lambda distortion matrix of rank s over F_{q^m},
and P an invertible column scrambler over the base field F_q.  Encryption
adds an error of rank exactly t to m G_pub; decryption undoes P, strips
the lambda distortion coordinates, and decodes the remaining n coordinates
in the secret code.

Everything decryption derives from the secret key alone is its decryption
plan (GptSecretKey.plan): P^-1, the secret code prepared for decoding at
radius t (GptSecretKey.code: its parity checks H and H_t, see
decoder.prepare), S G_sec, and the matrix that reads the message off k
columns of a codeword.  The plan is built on the first decrypt and reused
by every later one; it is not part of the key's fields, so it is never
serialized, and a key read back from JSON builds the same plan on its own
first decrypt.  The key reader checks t with the prepared code, which the
plan then reuses.  At q=2 the matrix and vector products of keygen,
encrypt and decrypt (S (X | G_sec) P, S G_sec, m G_pub, c P^-1, the
readout) and the decoder's systems run on coefficient bit planes (see
linalg), with results identical to field arithmetic.

The error radius t defaults to the measured decoding radius of the sampled
secret code: floor((n-k)/2) for Gabidulin, and whatever the q-sum dimension
condition yields for twisted codes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from . import linalg as la
from .codes import Code, TwistParams, moore_matrix, prw_parameters, twisted_moore_matrix
from .decoder import PreparedCode, max_radius, prepare
from .fields import FieldCtx
from .linalg import MatFq, MatFqm


class DecryptError(RuntimeError):
    def __init__(self, status: str):
        super().__init__(f"decoding failed: {status}")
        self.status = status


@dataclass(frozen=True)
class GptParams:
    ctx: FieldCtx
    n: int
    k: int
    lam: int
    s: int
    instantiation: str = "gabidulin"  # or "twisted"
    ell: int = 0
    t: int | None = None

    def validate(self) -> None:
        if not self.k < self.n <= self.ctx.m:
            raise ValueError("need k < n <= m")
        if self.lam < 1 or not 1 <= self.s <= min(self.k, self.lam):
            raise ValueError("need lambda >= 1 and 1 <= s <= min(k, lambda)")
        if self.instantiation == "gabidulin":
            if self.ell != 0:
                raise ValueError("gabidulin instantiation has no twists")
        elif self.instantiation == "twisted":
            if self.ell < 1:
                raise ValueError("twisted instantiation needs ell >= 1")
        else:
            raise ValueError(f"unknown instantiation {self.instantiation!r}")
        if self.t is not None and self.t < 1:
            raise ValueError("error rank t must be >= 1")


@dataclass(frozen=True)
class DecryptPlan:
    """What decrypt derives from a secret key alone.

    The message of a codeword cw is the m with m S G_sec = cw, if any; it
    is read off k columns as m = cw[cols] readout and then checked by
    re-encoding."""

    P_inv: MatFq
    code: PreparedCode  # the secret code at radius t
    SG: MatFqm  # S G_sec
    cols: list[int]  # k columns where S G_sec is invertible
    readout: MatFqm  # the inverse of S G_sec on those columns


@dataclass(frozen=True)
class GptSecretKey:
    params: GptParams
    g: list[int]
    tw: TwistParams | None
    S: MatFqm
    X: MatFqm
    P: MatFq

    @functools.cached_property
    def G_sec(self) -> MatFqm:
        ctx, k = self.params.ctx, self.params.k
        if self.tw is not None and self.tw.ell:
            return twisted_moore_matrix(ctx, self.g, k, self.tw)
        return moore_matrix(ctx, self.g, k)

    @functools.cached_property
    def code(self) -> PreparedCode:
        """The secret code prepared for decoding at radius t, built on first
        use; the plan decodes with it, and the key reader checks t with it."""
        C = Code(self.G_sec)
        if C.k != self.params.k:
            raise ValueError(f"secret generator has rank {C.k}, expected {self.params.k}")
        return prepare(C, self.params.t)

    @functools.cached_property
    def plan(self) -> DecryptPlan:
        """The decryption plan, built on first use (frozen fields keep it
        current)."""
        ctx, k = self.params.ctx, self.params.k
        C = self.code.C
        SG = self.S @ self.G_sec
        # S G_sec restricted to the pivot columns of C's echelon form is invertible
        cols = [next(j for j, a in enumerate(row) if a) for row in C.gen.data]
        block = MatFqm(ctx, [[row[j] for j in cols] for row in SG.data], k)
        readout = la.solve_left(block, MatFqm.identity(ctx, k))
        return DecryptPlan(self.P.inverse(), self.code, SG, cols, readout)


@dataclass
class GptPublicKey:
    params: GptParams
    G_pub: MatFqm


def keygen(
    params: GptParams, rng, tw: TwistParams | None = None
) -> tuple[GptSecretKey, GptPublicKey]:
    """Sample a key pair.

    An explicit tw overrides the evenly-spaced twist sampler, for twisted
    shapes where (n-k-ell)/(ell+1) is not an integer."""
    params.validate()
    ctx, n, k = params.ctx, params.n, params.k
    g = la.random_independent_vec(ctx, n, rng)
    if params.instantiation != "twisted":
        tw = None
    if params.instantiation == "twisted":
        if tw is None:
            tw = prw_parameters(ctx, n, k, params.ell, rng)
        else:
            if tw.ell != params.ell:
                raise ValueError("twist count does not match params.ell")
            tw.validate(n, k)
        G_sec = twisted_moore_matrix(ctx, g, k, tw)
    else:
        G_sec = moore_matrix(ctx, g, k)
    S = la.random_invertible_matfqm(ctx, k, rng)
    X = la.random_rank_s_matfqm(ctx, k, params.lam, params.s, rng)
    P = la.random_gl(ctx.q, n + params.lam, rng)

    radius = max_radius(Code(G_sec))
    if params.t is None:
        if radius < 1:
            raise ValueError("sampled secret code has decoding radius 0")
        params = replace(params, t=radius)
    elif params.t > radius:
        raise ValueError(f"requested t={params.t} exceeds decoding radius {radius}")

    G_pub = (S @ X.hstack(G_sec)) @ P
    return GptSecretKey(params, g, tw, S, X, P), GptPublicKey(params, G_pub)


def encrypt(pk: GptPublicKey, msg: list[int], rng) -> list[int]:
    """c = m G_pub + e with rank_fq(e) exactly t."""
    params = pk.params
    if len(msg) != params.k:
        raise ValueError("message length mismatch")
    ctx = params.ctx
    c = la.vec_mat(ctx, msg, pk.G_pub)
    e = la.random_vec_rank(ctx, params.n + params.lam, params.t, rng)
    return [ctx.add(a, b) for a, b in zip(c, e)]


def decrypt(sk: GptSecretKey, c: list[int]) -> list[int]:
    """Invert the scrambler, strip the distortion block, decode, solve for m."""
    params = sk.params
    ctx, lam = params.ctx, params.lam
    if len(c) != params.n + lam:
        raise ValueError("ciphertext length mismatch")
    plan = sk.plan
    y = la.vec_mat(ctx, c, plan.P_inv)[lam:]
    res = plan.code.decode(y)
    if not res.ok:
        raise DecryptError(res.status)
    cw = res.codeword
    msg = la.vec_mat(ctx, [cw[j] for j in plan.cols], plan.readout)
    if la.vec_mat(ctx, msg, plan.SG) != cw:
        raise DecryptError("codeword_outside_secret_code")
    return msg
