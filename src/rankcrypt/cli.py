"""Command line front end.

Subcommands: params, keygen, encrypt, decrypt, attack, distinguish,
selftest.  Every random choice of a run is determined by --seed (a 64-bit
integer feeding a Philox counter generator); identical invocations produce
bitwise-identical output files.

Exit codes: 0 success, 1 method failure (attack unsuccessful, decoding
failure, selftest failure), 2 usage or I/O error.  Errors are emitted as
one-line JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import serialize as ser
from .attack import AttackError, attack_extension, attack_overbeck
from .codes import Code, classify, dim_profile, gabidulin, prw_parameters, twisted_gabidulin
from .fields import field
from .gpt import DecryptError, GptParams, decrypt, encrypt, keygen
from .linalg import random_independent_vec
from .rng import derive_rng, make_rng


def _err(kind: str, message: str) -> None:
    print(json.dumps({"kind": kind, "error": message}), file=sys.stderr)


def _add_scheme_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", type=int, default=2, help="base field size")
    sp.add_argument("--m", type=int, help="extension degree")
    sp.add_argument("--n", type=int, help="secret code length")
    sp.add_argument("--k", type=int, help="code dimension")
    sp.add_argument("--lambda", dest="lam", type=int, help="distortion columns")
    sp.add_argument("--s", type=int, help="distortion rank")
    sp.add_argument("--ell", type=int, default=0, help="number of twists")
    sp.add_argument("--twisted", action="store_true", help="twisted instantiation")


def _add_io_flags(sp: argparse.ArgumentParser, n_in: int = 1) -> None:
    sp.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="FILE",
        help="input file (repeatable)" if n_in > 1 else "input file",
    )
    sp.add_argument("--out", help="output path")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rankcrypt",
        description="GPT encryption over rank-metric codes and its cryptanalysis",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="validate scheme parameters and write a params file")
    _add_scheme_flags(sp)
    _add_io_flags(sp)

    sp = sub.add_parser("keygen", help="sample a key pair")
    _add_scheme_flags(sp)
    _add_io_flags(sp)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("encrypt", help="encrypt a message file under a public key")
    _add_io_flags(sp, n_in=2)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("decrypt", help="decrypt a ciphertext file with a secret key")
    _add_io_flags(sp, n_in=2)

    sp = sub.add_parser("attack", help="recover a plaintext from public key + ciphertext")
    _add_io_flags(sp, n_in=2)
    sp.add_argument("--mode", choices=("extension", "overbeck"), default="extension")
    sp.add_argument("--i-max", dest="i_max", type=int, help="largest q-sum exponent tried")
    sp.add_argument("--seed", type=int, default=0, help="seed for scrambler completion sampling")
    sp.add_argument("--report", help="attack report path (default: --out)")

    sp = sub.add_parser("distinguish", help="q-sum dimension profile as CSV")
    _add_scheme_flags(sp)
    _add_io_flags(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--i-max", dest="i_max", type=int)

    sp = sub.add_parser("selftest", help="run quick built-in acceptance checks")
    sp.add_argument("--seed", type=int, default=0)

    return p


def _params_from_args(args) -> GptParams:
    for name in ("m", "n", "k", "lam", "s"):
        if getattr(args, name) is None:
            raise ValueError(f"missing --{'lambda' if name == 'lam' else name}")
    ctx = field(args.q, args.m)
    inst = "twisted" if (args.twisted or args.ell > 0) else "gabidulin"
    params = GptParams(
        ctx, n=args.n, k=args.k, lam=args.lam, s=args.s,
        instantiation=inst, ell=args.ell if inst == "twisted" else 0,
    )
    params.validate()
    return params


def _load_params(args) -> GptParams:
    if args.inputs:
        return ser.params_from_json(ser.read_json(args.inputs[0]))
    return _params_from_args(args)


def _cmd_params(args) -> int:
    params = _params_from_args(args)
    obj = ser.params_to_json(params)
    if args.out:
        ser.write_json(args.out, obj)
        print(args.out)
    else:
        print(json.dumps(obj, indent=1, sort_keys=True))
    return 0


def _cmd_keygen(args) -> int:
    params = _load_params(args)
    if not args.out:
        raise ValueError("keygen requires --out PREFIX")
    sk, pk = keygen(params, make_rng(args.seed))
    pk_path, sk_path = args.out + ".pk.json", args.out + ".sk.json"
    ser.write_json(pk_path, ser.public_key_to_json(pk))
    ser.write_json(sk_path, ser.secret_key_to_json(sk))
    print(pk_path)
    print(sk_path)
    return 0


def _cmd_encrypt(args) -> int:
    if not args.inputs:
        raise ValueError("encrypt requires --in PUBLIC_KEY [--in MESSAGE]")
    if not args.out:
        raise ValueError("encrypt requires --out CIPHERTEXT")
    pk = ser.public_key_from_json(ser.read_json(args.inputs[0]))
    ctx = pk.params.ctx
    rng = make_rng(args.seed)
    if len(args.inputs) > 1:
        msg = ser.message_from_json(ctx, ser.read_json(args.inputs[1]))
    else:
        # no message file: sample one from the seed and keep it next to the
        # ciphertext so the round trip stays checkable
        msg = [ctx.random(rng) for _ in range(pk.params.k)]
        msg_path = str(Path(args.out).with_suffix("")) + ".msg.json"
        ser.write_json(msg_path, ser.message_to_json(ctx, msg))
        print(msg_path)
    c = encrypt(pk, msg, rng)
    ser.write_json(args.out, ser.ciphertext_to_json(ctx, c))
    print(args.out)
    return 0


def _cmd_decrypt(args) -> int:
    if len(args.inputs) < 2:
        raise ValueError("decrypt requires --in SECRET_KEY --in CIPHERTEXT")
    if not args.out:
        raise ValueError("decrypt requires --out MESSAGE")
    sk = ser.secret_key_from_json(ser.read_json(args.inputs[0]))
    ctx = sk.params.ctx
    c = ser.ciphertext_from_json(ctx, ser.read_json(args.inputs[1]))
    msg = decrypt(sk, c)
    ser.write_json(args.out, ser.message_to_json(ctx, msg))
    print(args.out)
    return 0


def _cmd_attack(args) -> int:
    if len(args.inputs) < 2:
        raise ValueError("attack requires --in PUBLIC_KEY --in CIPHERTEXT")
    pk = ser.public_key_from_json(ser.read_json(args.inputs[0]))
    ctx = pk.params.ctx
    c = ser.ciphertext_from_json(ctx, ser.read_json(args.inputs[1]))
    if args.mode == "extension":
        rep = attack_extension(pk, c, i_max=args.i_max)
    else:
        # like the extension attack, try i = 1 .. i_max and stop at the first success
        i_max = 1 if args.i_max is None else args.i_max
        if i_max < 1:
            raise ValueError(f"--i-max must be at least 1, got {i_max}")
        rng = make_rng(args.seed)
        for i in range(1, i_max + 1):
            rep = attack_overbeck(pk, c, rng, i=i)
            if rep.success:
                break
    report_path = args.report or args.out
    if report_path:
        ser.write_json(report_path, ser.report_to_json(ctx, rep))
        print(report_path)
    else:
        print(json.dumps(ser.report_to_json(ctx, rep), indent=1, sort_keys=True))
    return 0 if rep.success else 1


def _cmd_distinguish(args) -> int:
    if args.inputs:
        pk = ser.public_key_from_json(ser.read_json(args.inputs[0]))
        C = Code(pk.G_pub)
    else:
        for name in ("m", "n", "k"):
            if getattr(args, name) is None:
                raise ValueError(f"missing --{name}")
        ctx = field(args.q, args.m)
        rng = make_rng(args.seed)
        g = random_independent_vec(ctx, args.n, rng)
        if args.twisted or args.ell > 0:
            tw = prw_parameters(ctx, args.n, args.k, args.ell or 1, rng)
            C = twisted_gabidulin(ctx, g, args.k, tw)
        else:
            C = gabidulin(ctx, g, args.k)
    i_max = args.i_max if args.i_max is not None else max(1, C.n - C.k)
    if i_max < 0:
        raise ValueError(f"--i-max must be at least 0, got {i_max}")
    dims = dim_profile(C, i_max)
    rows = [("i", "dim")] + [(i, d) for i, d in enumerate(dims)]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(args.out)
    else:
        for row in rows:
            print(f"{row[0]},{row[1]}")
    label, detail = classify(C)
    print(f"classification: {label}" + (f" (ell={detail})" if detail is not None else ""))
    return 0


def _cmd_selftest(args) -> int:
    """Reduced-seed mirror of the acceptance suite; minutes of work, not
    hours.  The full suite lives in the package tests."""
    from .codes import random_code
    from .decoder import brute_force_decode, decode
    from .linalg import random_vec_rank, vec_mat

    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  {detail}" if detail else ""))

    base = args.seed
    t0 = time.perf_counter()

    ctx = field(2, 32)
    good = 0
    for idx in range(5):
        rng = derive_rng(base + 1000, idx)
        g = random_independent_vec(ctx, 30, rng)
        C = gabidulin(ctx, g, 12)
        good += dim_profile(C, 6) == [min(30, 12 + i) for i in range(7)]
    check("qsum gabidulin growth", good == 5, f"{good}/5")

    good = 0
    for idx in range(5):
        rng = derive_rng(base + 2000, idx)
        C = random_code(ctx, 30, 5, rng)
        good += dim_profile(C, 1)[1] == 10
    check("qsum random growth", good == 5, f"{good}/5")

    ctx8 = field(2, 8)
    good = 0
    for idx in range(5):
        rng = derive_rng(base + 3000, idx)
        C = gabidulin(ctx8, random_independent_vec(ctx8, 8, rng), 2)
        cw = vec_mat(ctx8, [ctx8.random(rng) for _ in range(2)], C.gen)
        e = random_vec_rank(ctx8, 8, 3, rng)
        y = [ctx8.add(a, b) for a, b in zip(cw, e)]
        res = decode(C, y, 3)
        ref = brute_force_decode(C, y, 3)
        good += res.ok and ref.ok and res.codeword == ref.codeword == cw
    check("decoder vs exhaustive", good == 5, f"{good}/5")

    ctx40 = field(2, 40)
    params = GptParams(ctx40, n=36, k=16, lam=4, s=2, t=10)
    good = 0
    for idx in range(3):
        rng = derive_rng(base + 4000, idx)
        sk, pk = keygen(params, rng)
        msg = [ctx40.random(rng) for _ in range(16)]
        good += decrypt(sk, encrypt(pk, msg, rng)) == msg
    check("gpt round trip", good == 3, f"{good}/3")

    ctx28 = field(2, 28)
    params = GptParams(ctx28, n=24, k=12, lam=6, s=1)
    good = 0
    for idx in range(2):
        rng = derive_rng(base + 5000, idx)
        sk, pk = keygen(params, rng)
        msg = [ctx28.random(rng) for _ in range(12)]
        c = encrypt(pk, msg, rng)
        rep = attack_extension(pk, c)
        good += rep.success and rep.recovered == msg
    check("extension attack", good == 2, f"{good}/2")

    ctx24 = field(2, 24)
    params = GptParams(ctx24, n=20, k=9, lam=2, s=1)
    good = 0
    for idx in range(2):
        rng = derive_rng(base + 6000, idx)
        sk, pk = keygen(params, rng)
        msg = [ctx24.random(rng) for _ in range(9)]
        c = encrypt(pk, msg, rng)
        rep = attack_overbeck(pk, c, rng)
        good += rep.success and rep.recovered == msg
    check("overbeck attack", good == 2, f"{good}/2")

    print(f"selftest {'passed' if failures == 0 else 'FAILED'} in {time.perf_counter() - t0:.1f}s")
    return 0 if failures == 0 else 1


_DISPATCH = {
    "params": _cmd_params,
    "keygen": _cmd_keygen,
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "attack": _cmd_attack,
    "distinguish": _cmd_distinguish,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DecryptError, AttackError) as ex:
        _err("method", str(ex))
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as ex:
        _err("io", repr(ex))
        return 2
    except ValueError as ex:
        _err("usage", str(ex))
        return 2


if __name__ == "__main__":
    sys.exit(main())
