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

SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
FLOAT_DTYPES = [np.float64, np.float32, np.float16]
# the writer lays out a finite numeric array from a template of its shape,
# and walks any other one: arrays of both kinds, of every numeric kind
ARRAYS = st.one_of(
    hnp.arrays(st.sampled_from(FLOAT_DTYPES + [np.int64, np.int8, np.uint64,
                                               np.bool_, np.complex128]),
               SHAPES),
    st.sampled_from(FLOAT_DTYPES).flatmap(lambda dtype: hnp.arrays(
        dtype, SHAPES, elements=hnp.from_dtype(
            np.dtype(dtype), allow_nan=False, allow_infinity=False))),
)
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
    ARRAYS,
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


@pytest.mark.parametrize("array", [
    np.array(2.5), np.array(7), np.array(math.nan),
    np.zeros((0, 2, 2), dtype=np.int64), np.zeros((3, 0)),
    np.arange(12, dtype=np.int64).reshape(3, 2, 2),
    np.array([[1.5, math.inf]]), np.array([0.1], dtype=np.longdouble),
    np.ma.masked_array([1.0, 2.0], mask=[True, False])],
    ids=["0-d float", "0-d int", "0-d nan", "(0, 2, 2)", "(3, 0)", "(3, 2, 2)",
         "inf", "longdouble", "masked"])
def test_fixed_arrays_equal_the_two_pass_writer(tmp_path, array):
    payload = {"array": array, "nested": [{"array": array}]}
    write_json(tmp_path / "array.json", payload)
    assert (tmp_path / "array.json").read_text(encoding="utf-8") == json_text(payload)


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
