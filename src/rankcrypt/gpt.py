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
decoder.prepare), and the readout G[:, pivots]^-1 that reads the message
off the k pivot columns of a codeword; DecryptPlan.decrypt does the job,
and both attacks call it too.  The code and the readout come from one
elimination of [G | I_k] (codes.code_and_transform).

The secret key's plan (GptSecretKey.plan) takes for A the last n columns
of P^-1 and for G S G_sec.  keygen already eliminates [S G_sec | I_k] (it
accepts S when that has rank k) and walks the q-sums to Lambda_t for the
radius (decoder.max_radius), so it fills in G, its code, the readout and
Lambda_t as the key's cached GptSecretKey._secret.  The first decrypt then
only adds P^-1 and the parity checks H and H_t, and every later one reuses
the plan.  Cached values are not fields, so they are never compared or
serialized: a key read back from JSON builds the same from one
elimination and decoder.prepare on first use.  The key reader checks t with the prepared
code (GptSecretKey.code), which the plan then reuses.  At q=2 the matrix
and vector products of keygen, encrypt and decrypt (S X, S G_sec,
(S X | S G_sec) P, m G_pub, c A, the readout) and the decoder's systems
run on coefficient bit planes (see linalg), with results identical to
field arithmetic.

The error radius t defaults to the measured decoding radius of the sampled
secret code: floor((n-k)/2) for Gabidulin, and whatever the q-sum dimension
condition yields for twisted codes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from . import linalg as la
from .codes import (
    Code,
    TwistParams,
    code_and_transform,
    moore_matrix,
    prw_parameters,
    twisted_moore_matrix,
)
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


def make_plan(A: MatFq, G: MatFqm, code: PreparedCode, readout: MatFqm) -> DecryptPlan:
    """The plan that decodes c A with code, the code of G prepared by
    decoder.prepare, and reads the message off through readout, the inverse
    G[:, code.C.pivots]^-1; G must have full row rank.  The code and the
    readout both come from one elimination, codes.code_and_transform(G)."""
    return DecryptPlan(A, code, G, code.C.pivots, readout)


def _secret_generator(ctx: FieldCtx, g: list[int], k: int, tw: TwistParams | None) -> MatFqm:
    """G_sec: the twisted Moore matrix when tw has twists, else the Moore matrix."""
    if tw is not None and tw.ell:
        return twisted_moore_matrix(ctx, g, k, tw)
    return moore_matrix(ctx, g, k)


@dataclass(frozen=True)
class _SecretCode:
    """What the key's plan is built from: G = S G_sec, its code C and the
    readout T = G[:, C.pivots]^-1 (codes.code_and_transform), and
    Lambda_t(C) when it is known."""

    G: MatFqm
    C: Code
    T: MatFqm
    Lt: Code | None = None


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
    def _secret(self) -> _SecretCode:
        """S G_sec, its code and readout from one elimination of
        [S G_sec | I_k], built on first use; keygen fills it in on the key
        it makes (with Lambda_t), so only a key read back from JSON or made
        by dataclasses.replace builds it.  G_sec has rank k (the Moore
        matrix refuses dependent g, and each twist adds a monomial of its
        own), so S G_sec has rank k exactly when S is invertible."""
        G = self.S @ self.G_sec
        C, T = code_and_transform(G)
        if C.k != self.params.k:
            raise ValueError("S is singular")
        return _SecretCode(G, C, T)

    @functools.cached_property
    def code(self) -> PreparedCode:
        """The secret code prepared for decoding at radius t, built on first
        use; the plan decodes with it, and the key reader checks t with it."""
        sc = self._secret
        return prepare(sc.C, self.params.t, sc.Lt)

    @functools.cached_property
    def plan(self) -> DecryptPlan:
        """The decryption plan, built on first use (frozen fields keep it
        current): P^-1 without its first lambda columns strips the
        distortion block."""
        lam, n = self.params.lam, self.params.n
        P_inv = self.P.inverse()
        A = MatFq(P_inv.q, [row[lam:] for row in P_inv.data], n)
        return make_plan(A, self._secret.G, self.code, self._secret.T)


@dataclass
class GptPublicKey:
    params: GptParams
    G_pub: MatFqm


def keygen(
    params: GptParams, rng, tw: TwistParams | None = None
) -> tuple[GptSecretKey, GptPublicKey]:
    """Sample a key pair.

    An explicit tw overrides the evenly-spaced twist sampler, for twisted
    shapes where (n-k-ell)/(ell+1) is not an integer.

    S is drawn until [S G_sec | I_k] has rank k: G_sec has rank k (the
    Moore matrix refuses a dependent g, and a hook row only adds a multiple
    of a higher Frobenius power of g), so this is rank(S) = k, with the same
    draws.  That one elimination also gives the secret code and the plan's
    readout (codes.code_and_transform), and max_radius's walk gives
    Lambda_t; the key keeps them for its first decrypt."""
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

    def draw():
        S = MatFqm.random(ctx, k, k, rng)
        SG = S @ G_sec
        return (S, SG, *code_and_transform(SG))

    S, SG, C, T = la._resample(draw, lambda d: d[2].k == k)
    X = la.random_rank_s_matfqm(ctx, k, params.lam, params.s, rng)
    P = la.random_gl(ctx.q, n + params.lam, rng)

    radius, Lt = max_radius(C, return_qsum=True, t=params.t)
    if params.t is None:
        if radius < 1:
            raise ValueError("sampled secret code has decoding radius 0")
        params = replace(params, t=radius)
    elif params.t > radius:
        raise ValueError(f"requested t={params.t} exceeds decoding radius {radius}")

    G_pub = (S @ X).hstack(SG) @ P
    sk = GptSecretKey(params, g, tw, S, X, P)
    vars(sk)["_secret"] = _SecretCode(SG, C, T, Lt)  # the cached property's value
    return sk, GptPublicKey(params, G_pub)


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
