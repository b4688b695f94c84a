"""JSON round trips and export hygiene."""

import json

import pytest

from rankcrypt import serialize as ser
from rankcrypt.attack import attack_extension
from rankcrypt.codes import random_code
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, encrypt, keygen
from rankcrypt.rng import make_rng


def _keypair():
    ctx = field(2, 24)
    params = GptParams(ctx, n=20, k=8, lam=4, s=2)
    return keygen(params, make_rng(601))


def test_params_roundtrip():
    ctx = field(2, 32)
    p = GptParams(ctx, n=26, k=18, lam=6, s=1, instantiation="twisted", ell=2)
    q = ser.params_from_json(ser.params_to_json(p))
    assert q == p


def test_key_roundtrips():
    sk, pk = _keypair()
    sk2 = ser.secret_key_from_json(ser.secret_key_to_json(sk))
    pk2 = ser.public_key_from_json(ser.public_key_to_json(pk))
    assert sk2.g == sk.g and sk2.S == sk.S and sk2.X == sk.X and sk2.P == sk.P
    assert sk2.tw == sk.tw is None
    assert pk2.G_pub == pk.G_pub and pk2.params == pk.params


def test_twisted_key_roundtrip():
    ctx = field(2, 32)
    params = GptParams(ctx, n=26, k=18, lam=3, s=1, instantiation="twisted", ell=2)
    sk, pk = keygen(params, make_rng(602))
    sk2 = ser.secret_key_from_json(ser.secret_key_to_json(sk))
    assert sk2.tw.h == sk.tw.h and sk2.tw.t == sk.tw.t and sk2.tw.eta == sk.tw.eta


def test_public_export_has_no_secret_fields():
    sk, pk = _keypair()
    blob = json.dumps(ser.public_key_to_json(pk))
    assert "secret" not in blob
    for word in ('"g"', '"S"', '"X"', '"P"', '"tw"'):
        assert word not in blob


def test_ciphertext_and_message_roundtrip():
    sk, pk = _keypair()
    ctx = pk.params.ctx
    rng = make_rng(603)
    msg = [ctx.random(rng) for _ in range(8)]
    c = encrypt(pk, msg, rng)
    assert ser.ciphertext_from_json(ctx, ser.ciphertext_to_json(ctx, c)) == c
    assert ser.message_from_json(ctx, ser.message_to_json(ctx, msg)) == msg


def test_report_serialization():
    ctx = field(2, 28)
    params = GptParams(ctx, n=24, k=12, lam=6, s=1)
    rng = make_rng(605)
    sk, pk = keygen(params, rng)
    msg = [ctx.random(rng) for _ in range(12)]
    rep = attack_extension(pk, encrypt(pk, msg, rng))
    obj = ser.report_to_json(ctx, rep)
    assert obj["success"] is True
    assert ser.vec_from_json(ctx, obj["recovered"]) == msg
    assert obj["F"]["rows"] == 30
    assert all(v >= 0 for v in obj["timings_ms"].values())
    json.dumps(obj)  # fully JSON-typed


def test_malformed_inputs_rejected():
    sk, pk = _keypair()
    ctx = pk.params.ctx
    good = ser.matfqm_to_json(pk.G_pub)
    bad = dict(good, entries=good["entries"][:-1])
    with pytest.raises(ValueError):
        ser.matfqm_from_json(ctx, bad)
    with pytest.raises(ValueError):
        ser.matfq_from_json({"q": 2, "rows": 1, "cols": 2, "entries": [0, 5]})
    with pytest.raises(ValueError):
        ctx.from_hex(format(ctx.order, "x"))  # out of range
    # a message file may omit the format version but not carry another
    assert ser.message_from_json(ctx, {"msg": ["1"]}) == [1]
    with pytest.raises(ValueError):
        ser.message_from_json(ctx, {"format": 9, "msg": ["1"]})


def test_file_write_read(tmp_path):
    sk, pk = _keypair()
    path = tmp_path / "pk.json"
    ser.write_json(path, ser.public_key_to_json(pk))
    again = ser.public_key_from_json(ser.read_json(path))
    assert again.G_pub == pk.G_pub


def test_reading_a_key_and_decrypting_runs_one_qsum_echelon(monkeypatch):
    # the reader checks t with the key's prepared secret code, which the
    # first decrypt reuses, so the q-sum echelon of the secret code runs once
    from rankcrypt import codes, decoder
    from rankcrypt.gpt import decrypt

    sk, pk = _keypair()
    rng = make_rng(603)
    msg = [pk.params.ctx.random(rng) for _ in range(8)]
    c = encrypt(pk, msg, rng)
    blob = ser.secret_key_to_json(sk)
    runs = []
    orig = codes._qsum_echelon

    def counting(C):
        runs.append(C.n)
        return orig(C)

    monkeypatch.setattr(codes, "_qsum_echelon", counting)
    monkeypatch.setattr(decoder, "_qsum_echelon", counting)
    sk2 = ser.secret_key_from_json(blob)
    assert decrypt(sk2, c) == msg
    assert runs == [20]
