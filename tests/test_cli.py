"""CLI behavior through main(): exit codes, files, determinism, isolation."""

import csv
import json

import pytest

from rankcrypt import linalg as la
from rankcrypt import serialize as ser
from rankcrypt.cli import main
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, keygen
from rankcrypt.rng import derive_rng


def run(*argv):
    return main(list(argv))


def _keygen(tmp_path, seed=11):
    prefix = str(tmp_path / "key")
    rc = run(
        "keygen", "--q", "2", "--m", "24", "--n", "20", "--k", "9",
        "--lambda", "2", "--s", "1", "--seed", str(seed), "--out", prefix,
    )
    assert rc == 0
    return prefix + ".pk.json", prefix + ".sk.json"


def test_params_file(tmp_path):
    out = str(tmp_path / "params.json")
    rc = run(
        "params", "--q", "2", "--m", "104", "--n", "26", "--k", "18",
        "--lambda", "6", "--s", "1", "--twisted", "--ell", "2", "--out", out,
    )
    assert rc == 0
    obj = json.loads(open(out).read())
    assert obj["instantiation"] == "twisted" and obj["ell"] == 2
    assert obj["field"]["m"] == 104


def test_roundtrip_via_files(tmp_path):
    pk, sk = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    rc = run("encrypt", "--in", pk, "--seed", "5", "--out", ct)
    assert rc == 0
    dec = str(tmp_path / "dec.json")
    rc = run("decrypt", "--in", sk, "--in", ct, "--out", dec)
    assert rc == 0
    planted = json.loads(open(str(tmp_path / "ct.msg.json")).read())
    got = json.loads(open(dec).read())
    assert planted["msg"] == got["msg"]


def test_encrypt_with_message_file(tmp_path):
    pk, sk = _keygen(tmp_path)
    msg_path = str(tmp_path / "m.json")
    k, m = 9, 24
    json.dump({"msg": ["1"] * k}, open(msg_path, "w"))
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--in", msg_path, "--seed", "5", "--out", ct) == 0
    dec = str(tmp_path / "dec.json")
    assert run("decrypt", "--in", sk, "--in", ct, "--out", dec) == 0
    assert json.loads(open(dec).read())["msg"] == ["1"] * k


def test_attack_success_and_isolation(tmp_path):
    pk, sk = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    # corrupt the secret key on disk: the attack must not notice
    open(sk, "w").write("THIS IS NOT JSON")
    rep = str(tmp_path / "rep.json")
    rc = run("attack", "--in", pk, "--in", ct, "--mode", "overbeck", "--report", rep)
    assert rc == 0
    obj = json.loads(open(rep).read())
    planted = json.loads(open(str(tmp_path / "ct.msg.json")).read())
    assert obj["success"] is True
    assert obj["recovered"] == planted["msg"]


def test_attack_failure_exits_one(tmp_path):
    pk, sk = _keygen(tmp_path)
    # a rank-22 vector that no rank-5 error can explain
    ct = str(tmp_path / "ct.json")
    json.dump({"format": 1, "c": [format(1 << i, "x") for i in range(22)]}, open(ct, "w"))
    rep = str(tmp_path / "rep.json")
    rc = run("attack", "--in", pk, "--in", ct, "--mode", "overbeck", "--report", rep)
    assert rc == 1
    assert json.loads(open(rep).read())["success"] is False


def test_deterministic_outputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    pk1, sk1 = _keygen(tmp_path / "a")
    pk2, sk2 = _keygen(tmp_path / "b")
    assert open(pk1).read() == open(pk2).read()
    assert open(sk1).read() == open(sk2).read()


def test_distinguish_gabidulin_csv(tmp_path):
    out = str(tmp_path / "prof.csv")
    rc = run(
        "distinguish", "--q", "2", "--m", "32", "--n", "26", "--k", "18",
        "--seed", "3", "--i-max", "3", "--out", out,
    )
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["i", "dim"]
    assert rows[1] == ["0", "18"] and rows[2] == ["1", "19"]


def test_distinguish_public_key(tmp_path):
    pk, _ = _keygen(tmp_path)
    out = str(tmp_path / "prof.csv")
    assert run("distinguish", "--in", pk, "--i-max", "2", "--out", out) == 0
    rows = list(csv.reader(open(out)))
    assert rows[1][1] == "9"  # dim Lambda_0 = k


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run("keygen", "--q", "2", "--m", "24", "--n", "20", "--k", "9",
               "--lambda", "2", "--s", "1") == 2  # no --out
    err = capsys.readouterr().err
    assert json.loads(err.strip())["kind"] == "usage"
    assert run("decrypt", "--in", str(tmp_path / "nope.json"),
               "--in", str(tmp_path / "nope2.json"), "--out", "x") == 2
    # infeasible params
    assert run("keygen", "--q", "2", "--m", "24", "--n", "30", "--k", "9",
               "--lambda", "2", "--s", "1", "--out", str(tmp_path / "x")) == 2


def _attack_tampered_key(tmp_path, capsys, tamper):
    """Run the extension attack on a public key edited by tamper(obj);
    returns the exit code and the lines written to stderr."""
    pk, _ = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    obj = json.loads(open(pk).read())
    tamper(obj)
    json.dump(obj, open(pk, "w"))
    capsys.readouterr()
    rc = run("attack", "--in", pk, "--in", ct, "--mode", "extension")
    return rc, capsys.readouterr().err.strip().splitlines()


def test_attack_rejects_invalid_params(tmp_path, capsys):
    def tamper(obj):
        obj["params"]["k"] = -3

    rc, err = _attack_tampered_key(tmp_path, capsys, tamper)
    assert rc == 2
    assert len(err) == 1 and json.loads(err[0])["kind"] == "usage"


def test_attack_rejects_wrong_generator_shape(tmp_path, capsys):
    def tamper(obj):
        G = obj["public"]["G_pub"]  # k = 9 rows of n + lambda = 22 entries
        G["rows"] = 8
        G["entries"] = G["entries"][: 8 * G["cols"]]

    rc, err = _attack_tampered_key(tmp_path, capsys, tamper)
    assert rc == 2
    assert len(err) == 1 and json.loads(err[0])["kind"] == "usage"


def test_rejects_rank_deficient_public_key(tmp_path, capsys):
    pk, _ = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    obj = json.loads(open(pk).read())
    G = obj["public"]["G_pub"]  # row 1 becomes a copy of row 0
    c = G["cols"]
    G["entries"][c : 2 * c] = G["entries"][:c]
    json.dump(obj, open(pk, "w"))
    assert _usage_error(capsys, "encrypt", "--in", pk, "--seed", "7",
                        "--out", str(tmp_path / "ct2.json"))
    for mode in ("overbeck", "extension"):
        assert _usage_error(capsys, "attack", "--in", pk, "--in", ct, "--mode", mode), mode


def test_rejects_public_key_without_t(tmp_path, capsys):
    pk, _ = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    obj = json.loads(open(pk).read())
    obj["params"]["t"] = None
    json.dump(obj, open(pk, "w"))
    ct2 = tmp_path / "ct2.json"
    assert _usage_error(capsys, "encrypt", "--in", pk, "--seed", "7", "--out", str(ct2))
    assert not ct2.exists() and not (tmp_path / "ct2.msg.json").exists()
    for mode in ("overbeck", "extension"):
        assert _usage_error(capsys, "attack", "--in", pk, "--in", ct, "--mode", mode), mode


def _usage_error(capsys, *argv):
    """Run argv, expecting exit 2 and one JSON line of kind usage on stderr."""
    capsys.readouterr()
    rc = run(*argv)
    err = capsys.readouterr().err.strip().splitlines()
    return rc == 2 and len(err) == 1 and json.loads(err[0])["kind"] == "usage"


def _decrypt_tampered(tmp_path, capsys, tamper_sk=None, tamper_ct=None, seed=11):
    """Decrypt a fresh ciphertext after editing the secret key or the
    ciphertext file; True when it is refused as a usage error."""
    tmp_path.mkdir(exist_ok=True)
    pk, sk = _keygen(tmp_path, seed)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    for path, tamper in ((sk, tamper_sk), (ct, tamper_ct)):
        if tamper is not None:
            obj = json.loads(open(path).read())
            tamper(obj)
            json.dump(obj, open(path, "w"))
    return _usage_error(capsys, "decrypt", "--in", sk, "--in", ct,
                        "--out", str(tmp_path / "dec.json"))


def test_decrypt_rejects_base_field_of_scrambler(tmp_path, capsys):
    def tamper(obj):
        obj["secret"]["P"]["q"] = 3

    # seed 12: P read over F_3 is still invertible, so only the base-field
    # check can refuse it
    assert _decrypt_tampered(tmp_path, capsys, tamper_sk=tamper, seed=12)


def test_decrypt_rejects_wrong_secret_matrix_shapes(tmp_path, capsys):
    def drop_row(obj):  # S with k - 1 rows
        S = obj["secret"]["S"]
        S["rows"] -= 1
        S["entries"] = S["entries"][: S["rows"] * S["cols"]]

    def drop_col(obj):  # X one column short
        X = obj["secret"]["X"]
        c = X["cols"]
        X["entries"] = [e for i, e in enumerate(X["entries"]) if i % c != c - 1]
        X["cols"] = c - 1

    assert _decrypt_tampered(tmp_path / "s", capsys, tamper_sk=drop_row)
    assert _decrypt_tampered(tmp_path / "x", capsys, tamper_sk=drop_col)


def test_decrypt_rejects_singular_s(tmp_path, capsys):
    def tamper(obj):  # row 1 of S becomes a copy of row 0
        S = obj["secret"]["S"]
        c = S["cols"]
        S["entries"][c : 2 * c] = S["entries"][:c]

    assert _decrypt_tampered(tmp_path, capsys, tamper_sk=tamper)


def test_reading_a_secret_key_takes_four_eliminations(monkeypatch):
    # the key's one elimination of [S G_sec | I_k] also decides whether S is
    # singular (G_sec has rank k), so the reader runs no rank(S) of its own;
    # the headline twisted row, where a separate rank(S) made it five
    params = GptParams(field(2, 104), n=26, k=18, lam=6, s=1, instantiation="twisted", ell=2)
    blob = ser.secret_key_to_json(keygen(params, derive_rng(1, 1))[0])
    calls = []
    fqm_rref = la._fqm_rref

    def counting(ctx, D):
        calls.append(D.shape[:2])
        return fqm_rref(ctx, D)

    monkeypatch.setattr(la, "_fqm_rref", counting)
    ser.secret_key_from_json(blob)
    assert len(calls) == 4 and (18, 18) not in calls
    S = blob["secret"]["S"]  # row 1 of S becomes a copy of row 0
    S["entries"][S["cols"] : 2 * S["cols"]] = S["entries"][: S["cols"]]
    with pytest.raises(ValueError, match="S is singular"):
        ser.secret_key_from_json(blob)


def test_decrypt_rejects_radius_above_decoding_radius(tmp_path, capsys):
    def tamper(obj):
        obj["params"]["t"] = 9  # the secret [20, 9] Gabidulin code decodes up to 5

    assert _decrypt_tampered(tmp_path, capsys, tamper_sk=tamper)


def test_rejects_unknown_format_version(tmp_path, capsys):
    def tamper(obj):
        obj["format"] = 9

    assert _decrypt_tampered(tmp_path / "sk", capsys, tamper_sk=tamper)
    assert _decrypt_tampered(tmp_path / "ct", capsys, tamper_ct=tamper)
    (tmp_path / "pk").mkdir()
    rc, err = _attack_tampered_key(tmp_path / "pk", capsys, tamper)
    assert rc == 2
    assert len(err) == 1 and json.loads(err[0])["kind"] == "usage"


def test_attack_rejects_i_max_below_one(tmp_path, capsys):
    pk, _ = _keygen(tmp_path)
    ct = str(tmp_path / "ct.json")
    assert run("encrypt", "--in", pk, "--seed", "7", "--out", ct) == 0
    for mode, i_max in (("extension", "0"), ("extension", "-1"), ("overbeck", "0")):
        assert _usage_error(capsys, "attack", "--in", pk, "--in", ct,
                            "--mode", mode, "--i-max", i_max), (mode, i_max)


def test_distinguish_rejects_negative_i_max(capsys):
    capsys.readouterr()
    rc = run("distinguish", "--q", "2", "--m", "16", "--n", "10", "--k", "4", "--i-max", "-2")
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 2 and len(err) == 1
    obj = json.loads(err[0])
    assert obj["kind"] == "usage" and "--i-max" in obj["error"]


def test_overbeck_scans_i_up_to_i_max(tmp_path):
    # distortion rank 2 of 6: the distortion leaves the dual of Lambda_i
    # only from i=2, so Overbeck fails at i=1 and succeeds at i=2
    prefix = str(tmp_path / "key")
    assert run("keygen", "--q", "2", "--m", "28", "--n", "24", "--k", "12",
               "--lambda", "6", "--s", "2", "--seed", "1", "--out", prefix) == 0
    pk, ct, rep = prefix + ".pk.json", str(tmp_path / "ct.json"), str(tmp_path / "rep.json")
    assert run("encrypt", "--in", pk, "--seed", "5", "--out", ct) == 0
    planted = json.loads(open(str(tmp_path / "ct.msg.json")).read())["msg"]
    # without --i-max only i=1 is tried
    assert run("attack", "--in", pk, "--in", ct, "--mode", "overbeck", "--report", rep) == 1
    obj = json.loads(open(rep).read())
    assert obj["i_used"] == 1 and obj["failure"].startswith("distortion_not_eliminated")
    # with --i-max 3 the scan stops at the first success, i=2
    assert run("attack", "--in", pk, "--in", ct, "--mode", "overbeck",
               "--i-max", "3", "--report", rep) == 0
    obj = json.loads(open(rep).read())
    assert obj["success"] is True and obj["i_used"] == 2
    assert obj["recovered"] == planted
