"""Frozen outputs: sha256 of the canonical serialized keys, ciphertexts,
messages and attack reports (without timings_ms) for four seeded runs.

The digests pin the exact bytes, so any change to the arithmetic, the
random draw order or the attack pipeline that alters an output shows here,
including at odd q.  A change that is meant to alter outputs must update
the digests and say why.
"""

import hashlib
import json

from rankcrypt import serialize as ser
from rankcrypt.attack import attack_extension, attack_overbeck
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, decrypt, encrypt, keygen
from rankcrypt.rng import derive_rng


def _report(ctx, rep):
    obj = ser.report_to_json(ctx, rep)
    del obj["timings_ms"]
    return obj


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _run(params, seed, extension=False, overbeck=False):
    """keygen, encrypt, decrypt and the requested attacks on one key; every
    message is checked exactly.  Returns the digest of all outputs."""
    ctx = params.ctx
    rng = derive_rng(9100, seed)
    sk, pk = keygen(params, rng)
    msg = [ctx.random(rng) for _ in range(params.k)]
    c = encrypt(pk, msg, rng)
    dec = decrypt(sk, c)
    assert dec == msg
    records = {
        "sk": ser.secret_key_to_json(sk),
        "pk": ser.public_key_to_json(pk),
        "msg": ser.message_to_json(ctx, msg),
        "ct": ser.ciphertext_to_json(ctx, c),
        "dec": ser.message_to_json(ctx, dec),
        "reports": [],
    }
    if extension:
        rep = attack_extension(pk, c)
        assert rep.success and rep.recovered == msg
        records["reports"].append(_report(ctx, rep))
    if overbeck:
        rep = attack_overbeck(pk, c, rng)
        assert rep.success and rep.recovered == msg
        records["reports"].append(_report(ctx, rep))
    return _digest(records)


def test_golden_q2_m24_overbeck():
    params = GptParams(field(2, 24), n=20, k=9, lam=2, s=1)
    assert _run(params, 0, overbeck=True) == (
        "26ecc2722c7d1dd03491a583780f90adc2a91b8e61835e19932b73ad3a02e429"
    )


def test_golden_q2_m28_low_rank_extension():
    params = GptParams(field(2, 28), n=24, k=12, lam=6, s=1)
    assert _run(params, 1, extension=True) == (
        "417ee16ad89c984bc1e0a98df12ae65178f37304c63bfeef84e0beaca6fc309f"
    )


def test_golden_q2_m104_twisted_two_decrypts():
    # the headline field: the second decrypt reuses the key's plan
    params = GptParams(
        field(2, 104), n=26, k=18, lam=6, s=1, instantiation="twisted", ell=2
    )
    ctx = params.ctx
    rng = derive_rng(9100, 3)
    sk, pk = keygen(params, rng)
    records = {"sk": ser.secret_key_to_json(sk), "pk": ser.public_key_to_json(pk), "pairs": []}
    for _ in range(2):
        msg = [ctx.random(rng) for _ in range(params.k)]
        c = encrypt(pk, msg, rng)
        assert decrypt(sk, c) == msg
        records["pairs"].append(
            {"msg": ser.message_to_json(ctx, msg), "ct": ser.ciphertext_to_json(ctx, c)}
        )
    assert _digest(records) == (
        "893206aa42b0cce989230821cfbf65def4f79e636792ddd73edf2c3ddb847bc0"
    )


def test_golden_q3_m12_both_attacks():
    params = GptParams(field(3, 12), n=10, k=4, lam=2, s=1)
    assert _run(params, 2, extension=True, overbeck=True) == (
        "e06fb961f59371bc5e41e32ab3fdd91e2e51235a1f3fffb0c214e9121ea21451"
    )
