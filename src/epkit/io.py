"""Dataset ingestion and deterministic CSV/JSON serialization.

Trajectory CSVs carry one scan column followed by re_<name>/im_<name>
pairs, one pair per mode. Grids are exported in long format with one row
per node. All writers format floats with ``repr`` (shortest round-trip)
and sort JSON keys, so identical inputs produce byte-identical files.

The three CSV writers each hand a header and a list of columns to one row
writer, ``_write_csv``. A column is an iterable of cell strings; floats
enter it as ``repr`` strings, column by column (``_reprs``). Each row is
one C-level ``",".join`` of its cells, and the rows go out ``CSV_BLOCK``
at a time, one joined string per block. Blocks keep the write calls few
without holding the whole file as one string, which would add several MB
to peak RSS on a 256x128 grid; for the same reason ``_reprs`` turns
array values into Python floats one block at a time.

``write_json`` writes JSON in one recursive pass (``_encode``), in the
layout of ``json.dumps(indent=2, sort_keys=True)``, turning numpy values,
complex numbers and non-finite floats into JSON on the way. A non-empty
integer or float array whose values are all finite is one ``%`` of a
template of its shape (``_layout``, one ``%r`` per value) and its values
as Python numbers, so a manifest's thousands of cut edges cost no call
per bracket or int. The stdlib's C encoder cannot stand in: on Python
3.11 it ignores ``indent``, so ``json.dumps(indent=2)`` runs the
pure-Python encoder, and that only after a first walk has made the
payload plain Python values.

The two readers, ``ingest_csv`` and ``read_plane_csv``, check the header
with ``csv.reader``, then read every data cell in one ``np.loadtxt`` call
and check the cells as arrays. Where that call or a check fails, a
per-row reader reads the file again, one ``float`` per cell, and either
raises :class:`IngestError` naming the line of the first error or reads
what ``loadtxt`` does not (``1_0``, a quoted cell). Both ways give
bitwise the same arrays.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .crossing import MIN_SCAN_POINTS, ScanTrajectory
from .surface import DELTA, SheetGrid

CSV_BLOCK = 1024  # rows per write


class IngestError(ValueError):
    """Malformed external dataset; the message names the offending line."""


@dataclass
class TrajectoryDataset:
    """Externally computed eigenvalue series over a 1-D scan."""

    scan_name: str
    scan_values: np.ndarray
    modes: dict[str, np.ndarray]

    def __post_init__(self):
        self.scan_values = np.asarray(self.scan_values, dtype=float)
        if len(self.modes) < 2:
            raise ValueError("a dataset needs at least two mode series")
        for name, series in self.modes.items():
            series = np.asarray(series, dtype=complex)
            self.modes[name] = series
            if series.size != self.scan_values.size:
                raise ValueError(f"mode {name!r} length does not match the scan")
            finite = np.isfinite(series)
            if not finite.all():
                k = int(np.argmin(finite))
                raise ValueError(f"mode {name!r} row {k} is not finite: "
                                 f"{complex(series[k])!r}")
        s = self.scan_values  # compared, not subtracted: no step overflows
        if not (np.all(s[1:] > s[:-1]) or np.all(s[1:] < s[:-1])):
            raise ValueError("scan values must be strictly monotone")

    def to_trajectory(self, mode_a: str | None = None,
                      mode_b: str | None = None) -> ScanTrajectory:
        """Two distinct mode series (default: the first two), in file order.

        Decreasing scans are reversed so the trajectory is increasing.
        """
        names = list(self.modes)
        mode_a = mode_a if mode_a is not None else names[0]
        mode_b = mode_b if mode_b is not None else names[1]
        for name in (mode_a, mode_b):
            if name not in self.modes:
                raise ValueError(f"unknown mode {name!r}; the dataset has "
                                 f"modes {', '.join(names)}")
        if mode_a == mode_b:
            raise ValueError(f"modes {mode_a!r} and {mode_b!r} are the same "
                             "series; name two different modes")
        ts, a, b = self.scan_values, self.modes[mode_a], self.modes[mode_b]
        if ts[0] > ts[-1]:
            ts, a, b = ts[::-1], a[::-1], b[::-1]
        return ScanTrajectory(ts, a, b)


def _parse_number(text: str, line_num: int, column: str) -> float:
    """A float cell; infinities pass, NaN does not."""
    try:
        value = float(text)
    except ValueError:
        raise IngestError(
            f"line {line_num}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if math.isnan(value):
        raise IngestError(f"line {line_num}: NaN in column {column!r}")
    return value


def _parse_float(text: str, line_num: int, column: str) -> float:
    value = _parse_number(text, line_num, column)
    if math.isinf(value):
        raise IngestError(f"line {line_num}: infinite value in column {column!r}")
    return value


def _rows(reader):
    """The rows of a ``csv.reader``; a ``csv.Error``, such as a cell longer
    than ``csv.field_size_limit()``, raises :class:`IngestError` naming
    the line."""
    try:
        yield from reader
    except csv.Error as err:
        raise IngestError(f"line {reader.line_num}: {err}") from None


def _first_row(reader) -> list[str]:
    for row in _rows(reader):
        return row
    raise IngestError("line 1: empty file")


def _trajectory_header(reader) -> list[str]:
    """The stripped header ``scan,re_<k>,im_<k>,...``, checked."""
    header = [h.strip() for h in _first_row(reader)]
    if len(header) < 5 or (len(header) - 1) % 2 != 0:
        raise IngestError(
            "line 1: header must be scan followed by re_<k>,im_<k> pairs"
        )
    for re_col, im_col in zip(header[1::2], header[2::2]):
        if not (re_col.startswith("re_") and im_col.startswith("im_")):
            raise IngestError(
                f"line 1: expected re_<k>,im_<k> pair, got {re_col!r},{im_col!r}"
            )
        if re_col[3:] != im_col[3:]:
            raise IngestError(
                f"line 1: mismatched pair {re_col!r},{im_col!r}"
            )
    return header


def _plane_header(reader) -> None:
    if [h.strip() for h in _first_row(reader)[:2]] != ["n", "chi"]:
        raise IngestError("line 1: expected header n,chi")


def _read_cells(path, check_header):
    """The checked header and every data cell as one float array, or None
    for the array where one ``np.loadtxt`` call cannot stand in for
    ``csv.reader``: the first data row is blank (``loadtxt`` warns on a
    file with no data), or ``loadtxt`` rejects a cell or row, be it
    malformed or only spelled in a way ``float`` or ``csv`` reads
    (``1_0``, non-ASCII digits, a quoted cell, which may span lines).
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = check_header(reader)
        try:  # UnicodeDecodeError is a ValueError too
            first = handle.readline()
            if not first.strip():
                return header, None
            return header, np.loadtxt(chain((first,), handle), delimiter=",",
                                      comments=None, ndmin=2)
        except ValueError:
            return header, None


def ingest_csv(path) -> TrajectoryDataset:
    """Parse a trajectory CSV with header ``scan,re_1,im_1,re_2,im_2[,...]``.

    Ragged rows, non-numeric or non-finite cells, non-monotone scan columns
    and fewer than ``MIN_SCAN_POINTS`` rows raise :class:`IngestError`
    naming the line of the first error in the file.
    """
    header, cells = _read_cells(path, _trajectory_header)
    if cells is None or not _rows_pass(cells, len(header)):
        return _ingest_rows(path)
    columns = cells.T.copy()
    modes = {}
    for name, re, im in zip(header[1::2], columns[1::2], columns[2::2]):
        z = np.empty(len(cells), dtype=complex)
        z.real, z.imag = re, im  # re + 1j*im would turn an im of -0.0 into 0.0
        modes[name[3:]] = z
    return TrajectoryDataset(scan_name=header[0], scan_values=columns[0],
                             modes=modes)


def _rows_pass(cells: np.ndarray, width: int) -> bool:
    """Whether trajectory cells pass every row check of ``_ingest_rows``."""
    s = cells[:, 0]
    return (cells.shape[1] == width and len(cells) >= MIN_SCAN_POINTS
            and np.isfinite(cells).all()
            and ((s[1:] > s[:-1]).all() or (s[1:] < s[:-1]).all()))


def _ingest_rows(path) -> TrajectoryDataset:
    """``ingest_csv`` one cell at a time, raising at the first bad line."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = _trajectory_header(reader)
        mode_names = [h[3:] for h in header[1::2]]
        scan: list[float] = []
        series: list[list[complex]] = [[] for _ in mode_names]
        for row in _rows(reader):
            line_num = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise IngestError(
                    f"line {line_num}: expected {len(header)} cells, got {len(row)}"
                )
            value = _parse_float(row[0], line_num, header[0])
            if scan:
                step = value - scan[-1]
                direction = math.copysign(1.0, scan[1] - scan[0]) if len(scan) > 1 else None
                if step == 0 or (direction is not None and step * direction <= 0):
                    raise IngestError(
                        f"line {line_num}: scan value {value!r} breaks strict"
                        " monotonicity"
                    )
            scan.append(value)
            for m, name in enumerate(mode_names):
                re = _parse_float(row[1 + 2 * m], line_num, f"re_{name}")
                im = _parse_float(row[2 + 2 * m], line_num, f"im_{name}")
                series[m].append(complex(re, im))
        if len(scan) < MIN_SCAN_POINTS:
            raise IngestError(
                f"line {reader.line_num}: need at least {MIN_SCAN_POINTS} data"
                f" rows, got {len(scan)}")
    return TrajectoryDataset(
        scan_name=header[0],
        scan_values=np.array(scan),
        modes={name: np.array(vals) for name, vals in zip(mode_names, series)},
    )


def _reprs(values):
    """The shortest round-trip ``repr`` of each value, in C order. The
    values become Python objects ``CSV_BLOCK`` at a time, as the rows
    are written, so no column is held as a list of floats."""
    flat = np.ravel(values)
    return chain.from_iterable(map(repr, flat[i:i + CSV_BLOCK].tolist())
                               for i in range(0, flat.size, CSV_BLOCK))


def _write_csv(path, header, *columns) -> None:
    """Write ``header`` and one row per cell of the equal-length
    ``columns`` of cell strings, ``CSV_BLOCK`` rows per write.

    A column of another length raises ``ValueError`` from ``zip``.
    """
    rows = map(",".join, zip(*columns, strict=True))
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        while block := list(islice(rows, CSV_BLOCK)):
            handle.write("\n".join(block) + "\n")


def write_trajectory_csv(path, traj: ScanTrajectory) -> None:
    """Write a matched trajectory so it round-trips through ingest_csv."""
    _write_csv(path, ("scan", "re_1", "im_1", "re_2", "im_2"), _reprs(traj.ts),
               _reprs(traj.branch_a.real), _reprs(traj.branch_a.imag),
               _reprs(traj.branch_b.real), _reprs(traj.branch_b.imag))


def write_sheetgrid_csv(path, grid: SheetGrid) -> None:
    """Long-format grid export, one row per node.

    Raw mode writes ``p1,p2,re1,im1,re2,im2``. Delta mode writes
    ``p1,p2,re1,im1``: there sheet2 == -sheet1 by definition, which the
    manifest's ``delta_mode`` records; its ``cut_edges`` holds the cuts.
    A sheet not of shape ``(axis1.size, axis2.size)`` raises ``ValueError``.
    """
    n1, n2 = grid.axis1.size, grid.axis2.size
    sheets = ((grid.sheet1,) if grid.delta_mode == DELTA
              else (grid.sheet1, grid.sheet2))
    header, columns = ["p1", "p2"], []
    for k, sheet in enumerate(sheets, start=1):
        if np.shape(sheet) != (n1, n2):
            raise ValueError(f"sheet{k} must have shape (axis1.size, axis2.size)"
                             f" = {(n1, n2)}, got {np.shape(sheet)}")
        header += [f"re{k}", f"im{k}"]
        columns += [_reprs(sheet.real), _reprs(sheet.imag)]
    # each axis value is formatted once
    p1 = chain.from_iterable(map(repeat, _reprs(grid.axis1), repeat(n2)))
    p2 = list(_reprs(grid.axis2)) * n1
    _write_csv(path, header, p1, p2, *columns)


def read_plane_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The n and chi columns of a plane-point CSV with header ``n,chi``.

    Infinite cells are allowed (the point at infinity); an empty file, a
    bad header, a row with fewer than two cells, and a non-numeric or NaN
    cell raise :class:`IngestError` naming the line of the first error.
    """
    _, cells = _read_cells(path, _plane_header)
    if cells is None or cells.shape[1] < 2 or np.isnan(cells[:, :2]).any():
        return _plane_rows(path)
    return cells[:, :2].T


def _plane_rows(path) -> tuple[np.ndarray, np.ndarray]:
    """``read_plane_csv`` one cell at a time, raising at the first bad line."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        _plane_header(reader)
        points: list[tuple[float, float]] = []
        for row in _rows(reader):
            line_num = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise IngestError(
                    f"line {line_num}: expected 2 cells, got {len(row)}")
            points.append((_parse_number(row[0], line_num, "n"),
                           _parse_number(row[1], line_num, "chi")))
    return np.array(points, dtype=float).reshape(-1, 2).T


def write_sphere_csv(path, points: np.ndarray) -> None:
    """Write (N, 3) sphere points as ``tn,tchi,txi`` rows."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {points.shape}")
    _write_csv(path, ("tn", "tchi", "txi"), *map(_reprs, points.T))


_encode_str = json.encoder.encode_basestring_ascii


def _encode(obj, pad: str) -> str:
    """``obj`` as JSON in the layout of ``json.dumps(indent=2,
    sort_keys=True)``, its first line at no indent and its others at
    ``pad``: each dict sorted by ``str(key)``, numpy scalars and arrays
    as Python values, a complex as ``{"im", "re"}``, NaN and infinities
    as null. Plain floats and ints, most of the leaves, are looked up by
    exact type. A non-empty ndarray of one or more dims, of ints or of
    floats up to float64 that are all finite, fills the ``_layout`` of its
    shape with the ``repr`` of its ``tolist()`` values (a numpy scalar's
    own ``repr`` is ``np.float64(...)``); any other array (0-d, empty,
    bool, complex, or with NaN or infinities) is walked as its ``tolist()``.
    """
    kind = type(obj)
    if kind is float:
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if kind is int:
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = {str(k): v for k, v in obj.items()}
        return ("{\n" + inner + (",\n" + inner).join(
            [f"{_encode_str(k)}: {_encode(items[k], inner)}"
             for k in sorted(items)]) + "\n" + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return ("[\n" + inner + (",\n" + inner).join(
            [_encode(v, inner) for v in obj]) + "\n" + pad + "]")
    if isinstance(obj, (bool, np.bool_)):  # before int, which bool subclasses
        return "true" if obj else "false"
    if isinstance(obj, (np.floating, float)):
        return _encode(float(obj), pad)
    if isinstance(obj, (np.integer, int)):
        return int.__repr__(int(obj))
    if isinstance(obj, np.ndarray):
        dtype = obj.dtype
        if (type(obj) is np.ndarray and obj.ndim and obj.size
                and (dtype.kind in "iu" or dtype.kind == "f"
                     and dtype.itemsize <= 8 and np.isfinite(obj).all())):
            return _layout(obj.shape, pad) % tuple(obj.ravel().tolist())
        return _encode(obj.tolist(), pad)
    if isinstance(obj, complex):
        return _encode({"re": obj.real, "im": obj.imag}, pad)
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _layout(shape, pad: str) -> str:
    """The ``_encode`` layout at ``pad`` of a nested list of ``shape``,
    no side 0, with one ``%r`` per leaf."""
    if not shape:
        return "%r"
    inner = pad + "  "
    return ("[\n" + inner + (",\n" + inner).join(
        [_layout(shape[1:], inner)] * shape[0]) + "\n" + pad + "]")


def write_json(path, payload: dict) -> None:
    """Strict JSON with sorted keys; NaN and infinities are written as null."""
    Path(path).write_text(_encode(payload, "") + "\n", encoding="utf-8")
