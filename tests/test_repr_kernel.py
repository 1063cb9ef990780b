"""The numpy shortest-repr kernel of epkit.io (``_reprs``) against Python's
``repr``, value by value."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import io as io_mod

SRC = str(Path(io_mod.__file__).resolve().parents[1])
FIXED = [5e-324, 8e-323, 2.2250738585072014e-308, 1.7976931348623157e308,
         1e16, 9999999999999998.0, 1e-05, 0.0001, -0.0, -np.nan]


def kernel_reprs(values):
    chars, lengths = io_mod._reprs(values)
    assert chars.shape == (len(values), io_mod._CELL)
    return [bytes(row[:n]).decode() for row, n in zip(chars, lengths)]


def assert_reprs(values):
    values = np.asarray(values, dtype=np.float64)
    assert kernel_reprs(values) == list(map(repr, values.tolist()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=64))
def test_bit_patterns(patterns):
    # every float64, NaN payloads and subnormals among them
    assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=64))
def test_floats(values):
    assert_reprs(values)


def test_powers_and_fixed_cases():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    # the neighbours of 2**k straddle the irregular spacing at c = 2**52
    assert_reprs(np.concatenate([powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, np.inf), tens, FIXED]))


def test_a_block_edge():
    values = np.random.default_rng(7).standard_normal(io_mod._REPR_BLOCK + 1)
    values[io_mod._REPR_BLOCK - 1:] = [1e-300, -1e300]
    assert_reprs(values)


def test_g_table():
    # g(k) has 126 bits for every k, so r is floor(-k log2 10) - 125
    g1 = io_mod._tables()[0][0]
    assert g1.size == 617 and (g1 >> np.uint64(62) == 1).all()


def test_import_builds_no_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("import epkit.cli, epkit.io\n"
            "print(epkit.io._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr
