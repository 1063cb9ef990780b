"""Dataset ingestion and deterministic CSV/JSON serialization.

Trajectory CSVs carry one scan column followed by re_<name>/im_<name>
pairs, one pair per mode. Grids are exported in long format with one row
per node. All writers format floats as their ``repr`` (shortest
round-trip) and sort JSON keys, so identical inputs give byte-identical
files.

The three CSV writers each hand a header and a list of columns to one row
writer, ``_write_csv``. A column is the ``(chars, lengths)`` of its floats
from ``_reprs``, a numpy kernel that makes the bytes of each ``repr`` from
the float64 bits with no Python call per float: Schubfach's shortest
digits (Giulietti, "The Schubfach way to render doubles", 2020) in integer
array arithmetic, then one column gather per layout class (the sign and
the place of the decimal point). It runs ``_REPR_BLOCK`` values at a time,
so its temporaries stay small. The writer lays out ``CSV_BLOCK`` rows at a
time in one byte buffer and writes the bytes that the cell lengths keep.

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
import functools
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .crossing import MIN_SCAN_POINTS, ScanTrajectory
from .surface import DELTA, SheetGrid

CSV_BLOCK = 1024  # rows per write
_REPR_BLOCK = 4096  # values per pass of the repr kernel
_CELL = 24  # bytes of the longest float repr, -1.2345678901234567e-308
_KEEP = np.arange(_CELL + 1) < np.arange(_CELL + 1)[:, None]
_KEEP[:, _CELL] = True  # row n: the n bytes of a cell, then its separator
_K_MIN = -324  # the least decimal exponent of the Schubfach table
_POW10 = 10 ** np.arange(19, dtype=np.uint64)
_ONE, _INF = 0x3FF0000000000000, 0x7FF0000000000000  # float64 bits
_SPECIALS = np.frombuffer(b"0.0 -0.0inf -infnan ", np.uint8).reshape(5, 4)


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


@functools.cache
def _tables():
    """The kernel's tables, built at its first call. ``g(k) = floor(10**-k
    2**-r) + 1``, ``r = floor(-k log2 10) - 125``, for k from ``_K_MIN``
    to 292 as five uint64 rows: ``g >> 63``, its 32-bit halves and those
    of ``g mod 2**63``. The source column in ``[18 digits, '0', '.', '-']``
    of each cell byte, per layout: ``2 * (decpt + 3) + neg`` for fixed
    notation, ``40 + neg`` for exponents. The ``e±XX`` of each exponent
    from -324 to 308."""
    g = []
    for k in range(_K_MIN, 293):
        r = (-k * 913124641741 >> 38) - 125
        gk = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g.append([gk >> 63, gk >> 95, gk >> 63 & 2**32 - 1,
                  gk >> 32 & 2**31 - 1, gk & 2**32 - 1])
    layouts = []
    for decpt in [*range(-3, 17), 1]:
        body = ([18, 19] + [18] * -decpt + list(range(18)) if decpt <= 0
                else [*range(decpt), 19, *range(decpt, 18)])
        layouts += [([20] * neg + body + [18] * _CELL)[:_CELL] for neg in (0, 1)]
    suffixes = np.array([f"e{x:+03d}" for x in range(-324, 309)], "S5")
    return (np.array(g, np.uint64).T.copy(), np.array(layouts, np.intp),
            suffixes.view(np.uint8).reshape(-1, 5))


def _mulhi(a1, a0, b1, b0):
    """The high 64 bits of ``a b`` for ``a < 2**63``, ``b < 2**59``,
    given as 32-bit halves (the middle sum cannot carry out)."""
    return a1 * b1 + ((a0 * b1 + a1 * b0 + (a0 * b0 >> 32)) >> 32)


def _rop(g, cp):
    """The round-to-odd of ``g cp 2**-127`` as the JDK's ``rop`` makes it
    from ``g = g1 2**63 + g0``: the floor, its lowest bit set where the 63
    bits below it are not all 0."""
    g1, g11, g10, g01, g00 = g
    c1, c0 = cp >> 32, cp & 2**32 - 1
    z = (g1 * cp >> 1) + _mulhi(g01, g00, c1, c0)
    return (_mulhi(g11, g10, c1, c0) + (z >> 63)) | (z << 1 != 0)


def _shortest(mag):
    """Schubfach (Giulietti 2020, figure 7) on the bits ``mag`` of positive
    finite float64s: the decimal ``f 10**k`` nearest to each value (ties
    to even ``f``) among the shortest that read back as it, ``f < 10**18``.
    Python's ``repr`` is shortest, not at least two digits, so the JDK's
    ``s >= 100`` guard and its subnormal ``c *= 10`` are left out."""
    t = mag & 2**52 - 1
    bq = (mag >> 52).view(np.int64)
    c = t | 2**52
    subnormal = bq == 0
    if subnormal.any():
        c[subnormal] = t[subnormal]
        bq = np.maximum(bq, 1)
    q = bq - 1075
    irregular = (t == 0) & (bq > 1)  # the spacing halves below c = 2**52
    # floor(log10(2**q)), or floor(log10(3/4 2**q)) where irregular
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + (k * -913124641741 >> 38) + 2).view(np.uint64)
    g = _tables()[0].take(k - _K_MIN, axis=1)
    out = c & 1
    cb = c << 2
    vb = _rop(g, cb << h)
    low = _rop(g, (cb - 2 + irregular) << h) + out
    high = _rop(g, (cb + 2) << h) - out
    s = vb >> 2
    sp10 = s // 10 * 10
    # the one decimal of the coarser grid 10**(k + 1) in the interval,
    # else the one of s, s + 1 in it, else the nearer of the two
    upin = low <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= high
    uin = low <= s << 2
    win = (s + 1) << 2 <= high
    mid = (s << 2) + 2
    up = (uin != win) & win | (uin == win) & ((vb > mid) | (vb == mid) & (
        s & 1 != 0))
    f = np.where(upin != wpin, sp10 + wpin * np.uint64(10), s + up)
    return f, k, subnormal


def _repr_block(v):
    """``_reprs`` of one float64 block."""
    g, layouts, suffixes = _tables()
    bits = v.view(np.uint64)
    neg = (bits >> 63).view(np.int64)
    mag = bits & 2**63 - 1
    special = mag - 1 >= _INF - 1  # ±0.0, ±inf and NaN
    f, k, subnormal = _shortest(np.where(special, _ONE, mag))
    # f has n digits: 16 to 18 for a normal value (s has 16 or 17)
    n = 16 + (f >= _POW10[16]).view(np.int8) + (f >= _POW10[17])
    if subnormal.any():
        n[subnormal] = np.searchsorted(_POW10, f[subnormal], side="right")
    scaled = (f * _POW10[18 - n]).view(np.int64)
    top = scaled // 10**9
    halves = np.stack([top, scaled - top * 10**9]).astype(np.int32)
    src = np.empty((21, len(v)), np.uint8)  # transposed source rows
    digits = src[:18].reshape(2, 9, -1)
    for j in range(8, -1, -1):
        quotient = halves // 10
        digits[:, j] = halves - quotient * 10
        halves = quotient
    places = np.arange(1, 19, dtype=np.uint8)[:, None]
    nd = np.max((src[:18] != 0) * places, axis=0)  # to the last nonzero
    src[:18] += ord("0")
    src[18:] = np.frombuffer(b"0.-", np.uint8)[:, None]
    decpt = n + k  # the value is 0.d1d2... 10**decpt
    fixed = (decpt > -4) & (decpt <= 16)
    layout = (np.where(fixed, 2 * decpt + 6, 40) + neg).astype(np.int8)
    # one column gather per class, its rows a run in layout order
    order = np.argsort(layout, kind="stable")
    src = src.T.take(order, axis=0)
    ends = np.bincount(layout, minlength=len(layouts)).cumsum()
    chars = np.empty((len(v), _CELL), np.uint8)
    for cls in np.flatnonzero(np.diff(ends, prepend=0)):
        run = slice(ends[cls - 1] if cls else 0, ends[cls])
        chars[run] = src[run, layouts[cls]]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(v))
    chars = chars.take(rank, axis=0)
    d = np.where(fixed, decpt, 1)
    lengths = neg + np.where(d <= 0, 2 - d + nd, d + 1 + np.maximum(nd - d, 1))
    rows = np.flatnonzero(~fixed)
    if rows.size:  # exponent notation: d1[.d2...]e±XX
        x = decpt[rows] - 1
        at = neg[rows] + np.where(nd[rows] == 1, 1, nd[rows] + 1)
        chars[rows[:, None], at[:, None] + np.arange(5)] = suffixes[x + 324]
        lengths[rows] = at + 4 + (np.abs(x) >= 100)
    rows = np.flatnonzero(special)
    if rows.size:  # 0.0, -0.0, inf, -inf, nan (also for a negative NaN)
        kind = (mag[rows] >= _INF) + (mag[rows] > _INF).view(np.int8)
        kind = np.minimum(2 * kind + neg[rows], 4)
        chars[rows, :4] = _SPECIALS[kind]
        lengths[rows] = 3 + kind % 2
    return chars, lengths


def _reprs(values):
    """``(chars, lengths)``: row ``i`` of the ``(N, _CELL)`` uint8 ``chars``
    starts with the ``lengths[i]`` bytes of ``repr(float(v))`` for the
    ``i``-th value ``v`` of ``values`` in C order, made ``_REPR_BLOCK``
    values at a time, so the kernel's temporaries stay small."""
    flat = np.ascontiguousarray(np.ravel(values), dtype=np.float64)
    chars = np.empty((flat.size, _CELL), np.uint8)
    lengths = np.empty(flat.size, np.uint8)
    for i in range(0, flat.size, _REPR_BLOCK):
        block = slice(i, i + _REPR_BLOCK)
        chars[block], lengths[block] = _repr_block(flat[block])
    return chars, lengths


def _write_csv(path, header, *columns) -> None:
    """Write ``header`` and one row per cell of the equal-length
    ``columns``, each a ``(chars, lengths)`` pair from ``_reprs``. Each
    block of ``CSV_BLOCK`` rows is one write of a ``(rows, columns, _CELL +
    1)`` buffer of cells, each ending in its ``,`` or ``\n``: the bytes
    that ``_KEEP`` picks by cell length.

    A column of another length raises ``ValueError`` naming it.
    """
    n = max(len(chars) for chars, _ in columns)
    for name, (chars, _) in zip(header, columns):
        if len(chars) != n:
            raise ValueError(f"column {name!r} has {len(chars)} cells, not {n}")
    seps = np.frombuffer(b"," * (len(columns) - 1) + b"\n", np.uint8)
    with Path(path).open("wb") as handle:
        handle.write((",".join(header) + "\n").encode())
        for i in range(0, n, CSV_BLOCK):
            block = slice(i, i + CSV_BLOCK)
            rows = min(CSV_BLOCK, n - i)
            buf = np.empty((rows, len(columns), _CELL + 1), np.uint8)
            buf[:, :, _CELL] = seps
            ends = np.empty((rows, len(columns)), np.uint8)
            for j, (chars, lengths) in enumerate(columns):
                buf[:, j, :_CELL] = chars[block]
                ends[:, j] = lengths[block]
            handle.write(buf[_KEEP[ends]].tobytes())


def write_trajectory_csv(path, traj: ScanTrajectory) -> None:
    """Write a matched trajectory so it round-trips through ingest_csv;
    its five columns go through one ``_reprs`` call."""
    columns = [np.ravel(c) for c in (traj.ts, traj.branch_a.real,
                                     traj.branch_a.imag, traj.branch_b.real,
                                     traj.branch_b.imag)]
    ends = np.cumsum([c.size for c in columns[:-1]])
    _write_csv(path, ("scan", "re_1", "im_1", "re_2", "im_2"), *zip(
        *(np.split(a, ends) for a in _reprs(np.concatenate(columns)))))


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
    (chars1, lengths1), (chars2, lengths2) = map(_reprs, (grid.axis1, grid.axis2))
    p1 = np.repeat(chars1, n2, axis=0), np.repeat(lengths1, n2)
    p2 = np.tile(chars2, (n1, 1)), np.tile(lengths2, n1)
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
    _write_csv(path, ("tn", "tchi", "txi"),
               *zip(*(np.split(a, 3) for a in _reprs(points.T))))


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
