"""Property tests for the JSON formats: every artifact survives a round
trip unchanged, and a mutated artifact is refused with ValueError."""

import copy
import json

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from rankcrypt import serialize as ser
from rankcrypt.fields import field
from rankcrypt.gpt import GptParams, encrypt, keygen
from rankcrypt.rng import make_rng

FIELDS = {2: field(2, 12), 3: field(3, 6)}
# small rows that keygen accepts, one Gabidulin and one twisted per q
KEY_ROWS = [
    (2, dict(n=10, k=4, lam=2, s=1)),
    (2, dict(n=12, k=7, lam=2, s=1, instantiation="twisted", ell=1)),
    (3, dict(n=6, k=2, lam=2, s=1)),
]
# derandomized, so the suite runs the same examples every time; no
# shrinking, because shrinking a failing key example regenerates keys for
# minutes and the failing example is reproducible as drawn
FAST = settings(max_examples=50, deadline=None, derandomize=True,
                phases=[Phase.explicit, Phase.generate])
SLOW = settings(FAST, max_examples=25, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def gpt_params(draw):
    ctx = FIELDS[draw(st.sampled_from([2, 3]))]
    n = draw(st.integers(2, ctx.m))
    k = draw(st.integers(1, n - 1))
    lam = draw(st.integers(1, 4))
    s = draw(st.integers(1, min(k, lam)))
    twisted = draw(st.booleans())
    return GptParams(
        ctx, n=n, k=k, lam=lam, s=s,
        instantiation="twisted" if twisted else "gabidulin",
        ell=draw(st.integers(1, 3)) if twisted else 0,
        t=draw(st.none() | st.integers(1, n)),
    )


@st.composite
def key_material(draw):
    """(secret key, public key, ciphertext, message) from a seeded keygen."""
    q, row = draw(st.sampled_from(KEY_ROWS))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    sk, pk = keygen(GptParams(FIELDS[q], **row), rng)
    msg = [FIELDS[q].random(rng) for _ in range(row["k"])]
    return sk, pk, encrypt(pk, msg, rng), msg


def _elements(q):
    return st.integers(0, FIELDS[q].order - 1)


@given(gpt_params())
@FAST
def test_params_round_trip(params):
    assert ser.params_from_json(ser.params_to_json(params)) == params


@given(st.sampled_from([2, 3]).flatmap(lambda q: st.tuples(st.just(q), st.lists(_elements(q)))))
@FAST
def test_ciphertext_and_message_round_trip(case):
    q, v = case
    ctx = FIELDS[q]
    assert ser.ciphertext_from_json(ctx, ser.ciphertext_to_json(ctx, v)) == v
    assert ser.message_from_json(ctx, ser.message_to_json(ctx, v)) == v


@given(key_material())
@SLOW
def test_key_round_trip(material):
    sk, pk, c, msg = material
    obj = ser.secret_key_to_json(sk)
    sk2 = ser.secret_key_from_json(json.loads(json.dumps(obj)))
    assert ser.secret_key_to_json(sk2) == obj  # TwistParams has no __eq__
    assert (sk2.params, sk2.g, sk2.S, sk2.X, sk2.P) == (sk.params, sk.g, sk.S, sk.X, sk.P)
    pk2 = ser.public_key_from_json(json.loads(json.dumps(ser.public_key_to_json(pk))))
    assert pk2.params == pk.params and pk2.G_pub == pk.G_pub


# -- mutations -------------------------------------------------------------------

JUNK = [None, True, -1, 0, 1, 5, 2.5, "", "zz", "-1", "ffffffffffffffffffff", [], [1], {}, {"a": 1}]


def _paths(obj, prefix=()):
    """Paths to the values inside a JSON object, the root excluded; of a
    list only the first and the last entry, so that the keys of an object
    are not outnumbered by matrix entries."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = [(i, obj[i]) for i in sorted({0, len(obj) - 1}) if obj]
    else:
        items = []
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


@st.composite
def mutated(draw, obj):
    """obj with one value replaced by junk, one key dropped, or one list
    shortened or lengthened."""
    obj = copy.deepcopy(obj)
    path = draw(st.sampled_from(list(_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    kind = draw(st.sampled_from(["junk", "drop", "resize"] if isinstance(parent[key], list) else ["junk", "drop"]))
    if kind == "junk":
        parent[key] = draw(st.sampled_from(JUNK))
    elif kind == "drop":
        if isinstance(parent, dict):
            del parent[key]
        else:
            parent.pop(key)
    elif parent[key] and draw(st.booleans()):
        parent[key].pop()
    else:
        parent[key].append(draw(st.sampled_from(JUNK)))
    return obj


def _read(read, obj):
    """read(obj) may return or raise ValueError; any other exception fails."""
    try:
        read(obj)
    except ValueError:
        pass


@given(st.data())
@SLOW
def test_mutated_params_fail_only_with_value_error(data):
    obj = ser.params_to_json(data.draw(gpt_params()))
    _read(ser.params_from_json, data.draw(mutated(obj)))


@given(key_material(), st.data())
@SLOW
def test_mutated_keys_fail_only_with_value_error(material, data):
    sk, pk, c, msg = material
    _read(ser.secret_key_from_json, data.draw(mutated(ser.secret_key_to_json(sk))))
    _read(ser.public_key_from_json, data.draw(mutated(ser.public_key_to_json(pk))))


@given(key_material(), st.data())
@SLOW
def test_mutated_ciphertexts_and_messages_fail_only_with_value_error(material, data):
    sk, pk, c, msg = material
    ctx = pk.params.ctx
    _read(lambda o: ser.ciphertext_from_json(ctx, o),
          data.draw(mutated(ser.ciphertext_to_json(ctx, c))))
    _read(lambda o: ser.message_from_json(ctx, o),
          data.draw(mutated(ser.message_to_json(ctx, msg))))


@pytest.mark.parametrize("junk", JUNK, ids=repr)
def test_non_object_artifacts_raise_value_error(junk):
    ctx = FIELDS[2]
    for read in (ser.params_from_json, ser.secret_key_from_json, ser.public_key_from_json,
                 lambda o: ser.ciphertext_from_json(ctx, o),
                 lambda o: ser.message_from_json(ctx, o)):
        with pytest.raises(ValueError):
            read(junk)
