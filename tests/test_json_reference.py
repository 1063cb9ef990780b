"""The one-pass JSON writer of epkit.io against the two-pass writer of
json_reference.py, on random payload trees: each tree gives the same bytes,
or the same error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epkit.io import write_json
from json_reference import json_text

FLOATS = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
STRINGS = st.one_of(st.text(), st.text(st.characters(max_codepoint=0x1f)),
                    st.sampled_from(["a", "a b", "a!", 'a"', "a\\", "é",
                                     "\U0001f600", "\x7f"]))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, STRINGS,
    st.booleans().map(np.bool_), st.integers(-2**63, 2**63 - 1).map(np.int64),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.complex_numbers(), STRINGS.map(np.str_),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.bool_, np.complex128]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)
# "a" sorts before "a b", but its encoding '"a"' sorts after '"a b"'
KEYS = st.one_of(STRINGS, st.integers(), st.booleans(), FLOATS, st.none())
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=500, deadline=None)
@given(payload=st.dictionaries(KEYS, TREES, max_size=5))
def test_bytes_equal_the_two_pass_writer(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "payload.json"
    write_json(path, payload)
    assert path.read_bytes() == json_text(payload).encode("utf-8")


def test_keys_sort_by_text_not_by_encoding(tmp_path):
    payload = {"a b": [], "a": {}, 1: (), True: [1, {"b": 2.5, "a": None}]}
    write_json(tmp_path / "keys.json", payload)
    text = (tmp_path / "keys.json").read_text(encoding="utf-8")
    assert text == json_text(payload)
    assert text.index('"a"') < text.index('"a b"')


def test_unsupported_value_raises_the_same_error(tmp_path):
    payload = {"ok": [1.0], "bad": {1, 2}}
    with pytest.raises(TypeError) as ours:
        write_json(tmp_path / "bad.json", payload)
    with pytest.raises(TypeError) as reference:
        json_text(payload)
    assert str(ours.value) == str(reference.value)
    assert not (tmp_path / "bad.json").exists()
