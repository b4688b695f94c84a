"""JSON file formats for parameters, keys, ciphertexts and attack reports.

All F_{q^m} elements travel as lowercase hex strings of the packed integer
encoding; base-field matrices as plain integer lists.  Matrices are stored
row-major under {"rows", "cols", "entries"}.  Public key exports never
contain secret fields.

Every reader raises ValueError on malformed input: a wrong format version,
a missing key, a value of the wrong JSON type, or a value that fails the
checks below.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from . import linalg as la
from .attack import AttackReport
from .codes import Code, TwistParams
from .decoder import max_radius
from .fields import FieldCtx, field_from_json
from .gpt import GptParams, GptPublicKey, GptSecretKey
from .linalg import MatFq, MatFqm

FORMAT_VERSION = 1


def _reader(fn):
    """Report a missing key or a value of the wrong JSON type as ValueError."""

    @functools.wraps(fn)
    def read(*args):
        try:
            return fn(*args)
        except (KeyError, TypeError, AttributeError, IndexError) as ex:
            raise ValueError(f"malformed input: {type(ex).__name__}: {ex}") from ex

    return read


def _check_format(obj: dict) -> None:
    """Reject an artifact written under another format version."""
    if obj.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {obj.get('format')!r}, expected {FORMAT_VERSION}"
        )


def _check_shape(name: str, M, rows: int, cols: int) -> None:
    if (M.rows, M.cols) != (rows, cols):
        raise ValueError(f"{name} is {M.rows}x{M.cols}, expected {rows}x{cols}")


# -- leaf encoders -----------------------------------------------------------


def vec_to_json(ctx: FieldCtx, v: list[int]) -> list[str]:
    return [ctx.to_hex(a) for a in v]


def vec_from_json(ctx: FieldCtx, obj: list[str]) -> list[int]:
    return [ctx.from_hex(s) for s in obj]


def matfqm_to_json(M: MatFqm) -> dict:
    ctx = M.ctx
    return {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [ctx.to_hex(a) for row in M.data for a in row],
    }


def matfqm_from_json(ctx: FieldCtx, obj: dict) -> MatFqm:
    r, c = int(obj["rows"]), int(obj["cols"])
    flat = [ctx.from_hex(s) for s in obj["entries"]]
    if len(flat) != r * c:
        raise ValueError("matrix entry count mismatch")
    return MatFqm(ctx, [flat[i * c : (i + 1) * c] for i in range(r)], c)


def matfq_to_json(M: MatFq) -> dict:
    return {
        "q": M.q,
        "rows": M.rows,
        "cols": M.cols,
        "entries": [a for row in M.data for a in row],
    }


def matfq_from_json(obj: dict) -> MatFq:
    q, r, c = int(obj["q"]), int(obj["rows"]), int(obj["cols"])
    flat = [int(a) for a in obj["entries"]]
    if len(flat) != r * c:
        raise ValueError("matrix entry count mismatch")
    if any(not 0 <= a < q for a in flat):
        raise ValueError("base-field entry out of range")
    return MatFq(q, [flat[i * c : (i + 1) * c] for i in range(r)], c)


def twist_to_json(ctx: FieldCtx, tw: TwistParams) -> dict:
    return {
        "h": list(tw.h),
        "t": list(tw.t),
        "eta": [ctx.to_hex(a) for a in tw.eta],
    }


def twist_from_json(ctx: FieldCtx, obj: dict) -> TwistParams:
    return TwistParams(
        [int(a) for a in obj["h"]],
        [int(a) for a in obj["t"]],
        [ctx.from_hex(s) for s in obj["eta"]],
    )


# -- parameters and keys ------------------------------------------------------


def params_to_json(p: GptParams) -> dict:
    return {
        "field": p.ctx.to_json(),
        "n": p.n,
        "k": p.k,
        "lambda": p.lam,
        "s": p.s,
        "instantiation": p.instantiation,
        "ell": p.ell,
        "t": p.t,
    }


@_reader
def params_from_json(obj: dict) -> GptParams:
    ctx = field_from_json(obj["field"])
    t = obj.get("t")
    params = GptParams(
        ctx,
        n=int(obj["n"]),
        k=int(obj["k"]),
        lam=int(obj["lambda"]),
        s=int(obj["s"]),
        instantiation=str(obj["instantiation"]),
        ell=int(obj["ell"]),
        t=None if t is None else int(t),
    )
    params.validate()
    return params


def secret_key_to_json(sk: GptSecretKey) -> dict:
    ctx = sk.params.ctx
    return {
        "format": FORMAT_VERSION,
        "params": params_to_json(sk.params),
        "secret": {
            "g": vec_to_json(ctx, sk.g),
            "tw": None if sk.tw is None else twist_to_json(ctx, sk.tw),
            "S": matfqm_to_json(sk.S),
            "X": matfqm_to_json(sk.X),
            "P": matfq_to_json(sk.P),
        },
    }


@_reader
def secret_key_from_json(obj: dict) -> GptSecretKey:
    """Read a secret key, checking the shapes keygen produces: S is invertible
    of size k, X is k x lambda, P is invertible of size n + lambda over F_q, g has n
    entries, and t is within the decoding radius of the secret code."""
    _check_format(obj)
    params = params_from_json(obj["params"])
    ctx, n, k, lam = params.ctx, params.n, params.k, params.lam
    sec = obj["secret"]
    tw = None if sec.get("tw") is None else twist_from_json(ctx, sec["tw"])
    sk = GptSecretKey(
        params,
        vec_from_json(ctx, sec["g"]),
        tw,
        matfqm_from_json(ctx, sec["S"]),
        matfqm_from_json(ctx, sec["X"]),
        matfq_from_json(sec["P"]),
    )
    _check_shape("S", sk.S, k, k)
    _check_shape("X", sk.X, k, lam)
    _check_shape("P", sk.P, n + lam, n + lam)
    if sk.P.q != ctx.q:
        raise ValueError(f"P is over F_{sk.P.q}, expected F_{ctx.q}")
    if la.rank(sk.P) != n + lam:
        raise ValueError("P is singular")
    if len(sk.g) != n:
        raise ValueError(f"g has {len(sk.g)} entries, expected {n}")
    if tw is not None:
        tw.validate(n, k)
    # the key's prepared code comes from its one elimination of
    # [S G_sec | I_k], which refuses a singular S; t <= radius iff
    # n - dim Lambda_t >= t, since dim Lambda_t + t rises strictly with t;
    # the key keeps the prepared code for its plan
    if params.t is None or sk.code.Ht.rows < params.t:
        radius = max_radius(Code(sk.G_sec))
        raise ValueError(f"error rank t={params.t} exceeds decoding radius {radius}")
    return sk


def public_key_to_json(pk: GptPublicKey) -> dict:
    return {
        "format": FORMAT_VERSION,
        "params": params_to_json(pk.params),
        "public": {"G_pub": matfqm_to_json(pk.G_pub)},
    }


@_reader
def public_key_from_json(obj: dict) -> GptPublicKey:
    """Read a public key; t must be set, and G_pub must be k x (n + lambda)
    of rank k."""
    _check_format(obj)
    params = params_from_json(obj["params"])
    if params.t is None:
        raise ValueError("public key has no error rank t")
    G_pub = matfqm_from_json(params.ctx, obj["public"]["G_pub"])
    _check_shape("G_pub", G_pub, params.k, params.n + params.lam)
    rank = la.rank(G_pub)
    if rank != params.k:
        raise ValueError(f"G_pub has rank {rank}, expected {params.k}")
    return GptPublicKey(params, G_pub)


def ciphertext_to_json(ctx: FieldCtx, c: list[int]) -> dict:
    return {"format": FORMAT_VERSION, "c": vec_to_json(ctx, c)}


@_reader
def ciphertext_from_json(ctx: FieldCtx, obj: dict) -> list[int]:
    _check_format(obj)
    return vec_from_json(ctx, obj["c"])


def message_to_json(ctx: FieldCtx, msg: list[int]) -> dict:
    return {"format": FORMAT_VERSION, "msg": vec_to_json(ctx, msg)}


@_reader
def message_from_json(ctx: FieldCtx, obj: dict) -> list[int]:
    if "format" in obj:  # hand-written message files may leave it out
        _check_format(obj)
    return vec_from_json(ctx, obj["msg"])


def report_to_json(ctx: FieldCtx, rep: AttackReport) -> dict:
    return {
        "format": FORMAT_VERSION,
        "mode": rep.mode,
        "success": rep.success,
        "recovered": None if rep.recovered is None else vec_to_json(ctx, rep.recovered),
        "failure": rep.failure,
        "i_used": rep.i_used,
        "stab_dim": rep.stab_dim,
        "F": None if rep.F is None else matfq_to_json(rep.F),
        "timings_ms": {k: round(v, 3) for k, v in rep.timings_ms.items()},
    }


# -- file helpers --------------------------------------------------------------


def write_json(path: str | Path, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())
