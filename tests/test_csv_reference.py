"""The block-streamed CSV writers of epkit.io against the per-row
``str.format`` writers of csv_reference.py: each input gives the same bytes.
The row counts straddle the block size of ``io._write_csv``."""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import csv_reference as ref
from epkit import io as io_mod
from epkit.io import CSV_BLOCK
from epkit.surface import DELTA, RAW, CutSet, SheetGrid

FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e16, 1e-05, 0.1]))
ROW_COUNTS = [1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 1]
# (n1, n2) with n1 * n2 in ROW_COUNTS, both ways round where they differ
GRID_SHAPES = [(1, 1), (33, 31), (1, CSV_BLOCK - 1), (32, 32), (CSV_BLOCK, 1),
               (25, 41), (41, 25), (3, 683), (2 * CSV_BLOCK + 1, 1)]


def floats(n):
    return hnp.arrays(np.float64, n, elements=FLOATS)


def complex_array(re, im):
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im  # re + 1j*im would turn im=inf into re=nan
    return z


def complexes(n):
    return st.tuples(floats(n), floats(n)).map(lambda p: complex_array(*p))


def same_bytes(tmp_path, write, write_ref, *args):
    path, ref_path = tmp_path / "new.csv", tmp_path / "ref.csv"
    write(path, *args)
    write_ref(ref_path, *args)
    assert path.read_bytes() == ref_path.read_bytes()
    return path


@st.composite
def trajectories(draw):
    # the writer reads only these attributes; a ScanTrajectory would
    # refuse one row and a non-increasing or non-finite scan
    n = draw(st.sampled_from(ROW_COUNTS))
    return SimpleNamespace(ts=draw(floats(n)), branch_a=draw(complexes(n)),
                           branch_b=draw(complexes(n)))


@st.composite
def grids(draw):
    n1, n2 = draw(st.one_of(st.sampled_from(GRID_SHAPES),
                            st.tuples(st.integers(0, 5), st.integers(0, 5))))
    sheet1 = draw(complexes((n1, n2)))
    delta_mode = draw(st.sampled_from([DELTA, RAW]))
    sheet2 = -sheet1 if delta_mode == DELTA else draw(complexes((n1, n2)))
    node = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    edges = (st.lists(st.tuples(node, node), max_size=6) if n1 and n2
             else st.just([]))
    cuts = CutSet(draw(edges), draw(edges), draw(edges))
    missing = draw(st.lists(node, max_size=4, unique=True)) if n1 and n2 else []
    for i, j in missing:
        sheet1[i, j] = sheet2[i, j] = complex(math.nan, math.nan)
    return SheetGrid(draw(floats(n1)), draw(floats(n2)), sheet1, sheet2,
                     cuts, delta_mode, missing)


class TestSameBytesAsFormatWriters:
    @settings(max_examples=40, deadline=None)
    @given(traj=trajectories())
    def test_trajectory(self, tmp_path_factory, traj):
        same_bytes(tmp_path_factory.mktemp("traj"), io_mod.write_trajectory_csv,
                   ref.write_trajectory_csv, traj)

    @settings(max_examples=60, deadline=None)
    @given(grid=grids())
    def test_sheetgrid(self, tmp_path_factory, grid):
        same_bytes(tmp_path_factory.mktemp("grid"), io_mod.write_sheetgrid_csv,
                   ref.write_sheetgrid_csv, grid)

    @settings(max_examples=40, deadline=None)
    @given(points=st.sampled_from([0, *ROW_COUNTS]).flatmap(
        lambda n: floats((n, 3))))
    def test_sphere(self, tmp_path_factory, points):
        same_bytes(tmp_path_factory.mktemp("sphere"), io_mod.write_sphere_csv,
                   ref.write_sphere_csv, points)

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_one_line_per_row(self, tmp_path, n):
        points = np.arange(3.0 * n).reshape(n, 3)
        path = same_bytes(tmp_path, io_mod.write_sphere_csv,
                          ref.write_sphere_csv, points)
        lines = path.read_text().split("\n")
        assert len(lines) == n + 2 and lines[-1] == ""
        assert lines[-2] == ",".join(map(repr, points[-1].tolist()))


@pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (CSV_BLOCK + 1, CSV_BLOCK)])
def test_a_column_of_another_length_raises(tmp_path, lengths):
    columns = [io_mod._reprs(np.ones(n)) for n in lengths]
    short = "b" if lengths[1] < lengths[0] else "a"
    message = f"column {short!r} has {min(lengths)} cells, not {max(lengths)}"
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        io_mod._write_csv(path, ("a", "b"), *columns)
    assert not path.exists()


def test_a_branch_of_another_length_raises(tmp_path):
    traj = SimpleNamespace(ts=np.arange(4.0), branch_a=np.zeros(4, complex),
                           branch_b=np.zeros(3, complex))
    with pytest.raises(ValueError, match="column 're_2' has 3 cells, not 4"):
        io_mod.write_trajectory_csv(tmp_path / "bad.csv", traj)
