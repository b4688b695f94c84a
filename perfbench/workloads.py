"""The benchmark's workloads: one GPT parameter row each, run from one
process and one thread as a closed loop (each operation starts only after
the previous one has finished), through the library's public API only.

Keys, messages, encryption randomness and the rng handed to
attack_overbeck all come from one stream per key, derive_rng(base, i),
where base = seed * SEED_STRIDE.  The stride keeps the key streams of
neighbouring seeds apart: with base = seed, seeds n and n+1 would share
all keys but one.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from time import perf_counter

from rankcrypt import attack, gpt, serialize
from rankcrypt.fields import field
from rankcrypt.rng import derive_rng

SEED_STRIDE = 1 << 32


@dataclass(frozen=True)
class Workload:
    name: str
    label: str  # the row's name in the ROADMAP baseline table
    q: int
    m: int
    n: int
    k: int
    lam: int
    s: int
    instantiation: str = "gabidulin"
    ell: int = 0
    t: int | None = None
    pairs: int = 1  # encrypt -> decrypt pairs per key
    extension: bool = False
    ext_i_max: int | None = None
    overbeck: str | None = None  # expected outcome: "blocked" or "success"
    digest_keys: int = 1  # keys covered by the output digest and the traced run

    def params(self) -> gpt.GptParams:
        return gpt.GptParams(
            field(self.q, self.m), n=self.n, k=self.k, lam=self.lam, s=self.s,
            instantiation=self.instantiation, ell=self.ell, t=self.t,
        )


WORKLOADS = {w.name: w for w in (
    # Decrypt dominates and nothing in `attack` runs: a per-key decryption
    # plan or a faster q=2 matrix core shows here, a stabilizer change must not.
    Workload("roundtrip-m40", "m=40 round trip", 2, 40, 36, 16, 4, 2, t=10, pairs=8),
    # The stabilizer is most of the attack, so F_2 echelon work dominates;
    # fresh keys show what a per-key cache costs when no key is reused.
    Workload("attack-lowrank-m28", "m=28 low-rank", 2, 28, 24, 12, 6, 1,
             extension=True, ext_i_max=1, overbeck="blocked", digest_keys=2),
    # The headline twisted row: large-field arithmetic (decode, recover)
    # matters next to the stabilizer, so both matrix-core and stabilizer
    # changes show.
    Workload("attack-twisted-m104", "m=104 twisted", 2, 104, 26, 18, 6, 1,
             instantiation="twisted", ell=2, extension=True),
    # Odd q: the _PrimeCtx arithmetic and the full odd-q stabilizer system;
    # every q=2 optimisation must predict no change here.
    Workload("oddq-m12", "q=3 m=12", 3, 12, 10, 4, 2, 1,
             extension=True, overbeck="success", digest_keys=2),
)}


def _report_json(ctx, rep):
    obj = serialize.report_to_json(ctx, rep)
    del obj["timings_ms"]
    return obj


class Batch:
    """Runs keys of one workload and keeps what the metrics and checks need.

    ops holds (operation, milliseconds, outcome as expected) per attempted
    operation; reports holds (operation, AttackReport, milliseconds) per
    attack; key_ms the wall time of each completed key.  The first
    digest_keys keys also keep their artifacts for the output digest.
    """

    def __init__(self, workload: Workload, params, seed: int, recorder=None):
        self.w = workload
        self.params = params
        self.ctx = params.ctx
        self.base = seed * SEED_STRIDE
        self.recorder = recorder
        self.ops: list[tuple[str, float, bool]] = []
        self.reports: list[tuple[str, object, float]] = []
        self.key_ms: list[float] = []
        self.artifacts: list[dict] = []

    def _call(self, fn, *args):
        """Time one operation; an exception is recorded and returns None."""
        if self.recorder is not None:
            self.recorder.op += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:  # noqa: BLE001 - an exception is a counted failure
            traceback.print_exc()
            out = None
        return out, (perf_counter() - t0) * 1e3

    def _check(self, op, ms, ok):
        self.ops.append((op, ms, bool(ok)))

    def run_key(self, index: int) -> None:
        w, ctx, params = self.w, self.ctx, self.params
        rng = derive_rng(self.base, index)
        t_key = perf_counter()
        keys, ms = self._call(gpt.keygen, params, rng)
        self._check("keygen", ms, keys is not None)
        if keys is None:
            return
        sk, pk = keys
        art = {"pk": pk, "sk": sk, "pairs": [], "reports": []}
        for _ in range(w.pairs):
            msg = [ctx.random(rng) for _ in range(params.k)]
            ct, ms = self._call(gpt.encrypt, pk, msg, rng)
            self._check("encrypt", ms, ct is not None)
            if ct is None:
                return
            dec, ms = self._call(gpt.decrypt, sk, ct)
            self._check("decrypt", ms, dec == msg)
            art["pairs"].append((msg, ct, dec))
        if w.extension:
            rep, ms = self._call(attack.attack_extension, pk, ct, w.ext_i_max)
            self._check("attack_ext", ms, rep is not None and rep.success and rep.recovered == msg)
            if rep is not None:
                self.reports.append(("attack_ext", rep, ms))
                art["reports"].append(rep)
        if w.overbeck:
            rep, ms = self._call(attack.attack_overbeck, pk, ct, rng, 1)
            if rep is None:
                ok = False
            elif w.overbeck == "blocked":
                ok = not rep.success and rep.failure.startswith("distortion_not_eliminated")
            else:
                ok = rep.success and rep.recovered == msg
            self._check("attack_ovb", ms, ok)
            if rep is not None:
                self.reports.append(("attack_ovb", rep, ms))
                art["reports"].append(rep)
        self.key_ms.append((perf_counter() - t_key) * 1e3)
        if index < w.digest_keys:
            self.artifacts.append(art)

    def digest_records(self) -> list[dict]:
        """Canonical JSON of the digest keys: keys, ciphertexts, messages
        as encrypted and as decrypted, and attack reports without
        timings_ms."""
        ctx = self.ctx

        def msg_json(v):
            return None if v is None else serialize.message_to_json(ctx, v)

        return [{
            "sk": serialize.secret_key_to_json(a["sk"]),
            "pk": serialize.public_key_to_json(a["pk"]),
            "pairs": [{"msg": msg_json(m), "ct": serialize.ciphertext_to_json(ctx, c),
                       "dec": msg_json(d)} for m, c, d in a["pairs"]],
            "reports": [_report_json(ctx, r) for r in a["reports"]],
        } for a in self.artifacts]
