"""The GPT public-key encryption scheme over rank-metric codes.

Key generation hides a secret Gabidulin (or twisted Gabidulin) generator
G_sec inside G_pub = S (X | G_sec) P: S is an invertible matrix over
F_{q^m}, X a random k x lambda distortion matrix of rank s over F_{q^m},
and P an invertible column scrambler over the base field F_q.  Encryption
adds an error of rank exactly t to m G_pub; decryption undoes P, strips
the lambda distortion coordinates, and decodes the remaining n coordinates
in the secret code.

Gabidulin and twisted Gabidulin codes are decoded from a generator matrix
alone, so decryption is one job for whoever holds a linear map A that
makes c A decodable: decode c A in the code of a full-rank generator G
(for the key holder S G_sec, for an attacker G_pub A), then read the
message off the codeword.  A DecryptPlan (make_plan) holds A, G, the code
of G prepared for decoding at radius t (its parity checks H and H_t, see
decoder.prepare), and the matrix that reads the message off k columns of a
codeword; DecryptPlan.decrypt does the job, and both attacks call it too.

The secret key's plan (GptSecretKey.plan) takes for A the last n columns
of P^-1 and for G S G_sec.  It is built on the first decrypt and reused by
every later one; it is not part of the key's fields, so it is never
serialized, and a key read back from JSON builds the same plan on its own
first decrypt.  The key reader checks t with the prepared code
(GptSecretKey.code), which the plan then reuses.  At q=2 the matrix and
vector products of keygen, encrypt and decrypt (S (X | G_sec) P, S G_sec,
m G_pub, c A, the readout) and the decoder's systems run on coefficient
bit planes (see linalg), with results identical to field arithmetic.

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
    """Everything needed to decrypt c by decoding c A in the code of G.

    The message of a codeword cw is the m with m G = cw, if any; it is read
    off k columns as m = cw[cols] readout and then checked by re-encoding."""

    A: MatFq  # applied to the ciphertext
    code: PreparedCode  # the code of G at radius t
    G: MatFqm  # full rank: the encoder of the message
    cols: list[int]  # k columns where G is invertible
    readout: MatFqm  # the inverse of G on those columns

    def decrypt(self, c: list[int]) -> list[int]:
        """Decode c A, read the message off the codeword and re-encode it;
        DecryptError on failure."""
        ctx = self.G.ctx
        res = self.code.decode(la.vec_mat(ctx, c, self.A))
        if not res.ok:
            raise DecryptError(res.status)
        cw = res.codeword
        msg = la.vec_mat(ctx, [cw[j] for j in self.cols], self.readout)
        if la.vec_mat(ctx, msg, self.G) != cw:
            raise DecryptError("codeword_outside_secret_code")
        return msg


def make_plan(A: MatFq, G: MatFqm, code: PreparedCode) -> DecryptPlan:
    """The plan that decodes c A with code, the code of G prepared by
    decoder.prepare, and reads the message off through G, which must have
    full row rank."""
    ctx, k = G.ctx, G.rows
    # G restricted to the pivot columns of its code's echelon form is invertible
    cols = code.C.pivots
    block = MatFqm(ctx, [[row[j] for j in cols] for row in G.data], k)
    readout = la.solve_left(block, MatFqm.identity(ctx, k))
    return DecryptPlan(A, code, G, cols, readout)


def _secret_generator(ctx: FieldCtx, g: list[int], k: int, tw: TwistParams | None) -> MatFqm:
    """G_sec: the twisted Moore matrix when tw has twists, else the Moore matrix."""
    if tw is not None and tw.ell:
        return twisted_moore_matrix(ctx, g, k, tw)
    return moore_matrix(ctx, g, k)


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
        return _secret_generator(self.params.ctx, self.g, self.params.k, self.tw)

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
        current): P^-1 without its first lambda columns strips the
        distortion block."""
        lam, n = self.params.lam, self.params.n
        P_inv = self.P.inverse()
        A = MatFq(P_inv.q, [row[lam:] for row in P_inv.data], n)
        return make_plan(A, self.S @ self.G_sec, self.code)


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
    G_sec = _secret_generator(ctx, g, k, tw)
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
    """Decrypt through the key's plan: undo the scrambler, strip the
    distortion block, decode, read off m."""
    if len(c) != sk.params.n + sk.params.lam:
        raise ValueError("ciphertext length mismatch")
    return sk.plan.decrypt(c)
