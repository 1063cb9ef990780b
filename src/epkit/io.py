"""Dataset ingestion and deterministic CSV/JSON serialization.

Trajectory CSVs carry one scan column followed by re_<name>/im_<name>
pairs, one pair per mode. Grids are exported in long format with one row
per node. All writers format floats with ``repr`` (shortest round-trip)
and sort JSON keys, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .crossing import ScanTrajectory, match_branches
from .surface import DELTA, SheetGrid


class IngestError(ValueError):
    """Malformed external dataset; the message names the offending line."""


@dataclass
class TrajectoryDataset:
    """Externally computed eigenvalue series over a 1-D scan."""

    scan_name: str
    scan_values: np.ndarray
    modes: dict[str, np.ndarray]
    metadata: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.scan_values = np.asarray(self.scan_values, dtype=float)
        if len(self.modes) < 2:
            raise ValueError("a dataset needs at least two mode series")
        for name, series in self.modes.items():
            series = np.asarray(series, dtype=complex)
            self.modes[name] = series
            if series.size != self.scan_values.size:
                raise ValueError(f"mode {name!r} length does not match the scan")
        d = np.diff(self.scan_values)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("scan values must be strictly monotone")

    def to_trajectory(self, mode_a: str | None = None,
                      mode_b: str | None = None) -> ScanTrajectory:
        """Continuity-match two mode series (default: the first two).

        Decreasing scans are reversed so the trajectory is increasing.
        """
        names = list(self.modes)
        mode_a = mode_a if mode_a is not None else names[0]
        mode_b = mode_b if mode_b is not None else names[1]
        for name in (mode_a, mode_b):
            if name not in self.modes:
                raise ValueError(f"unknown mode {name!r}; the dataset has "
                                 f"modes {', '.join(names)}")
        ts = self.scan_values
        pairs = np.stack([self.modes[mode_a], self.modes[mode_b]], axis=1)
        if ts[0] > ts[-1]:
            ts, pairs = ts[::-1], pairs[::-1]
        return match_branches(ts, pairs)


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


def ingest_csv(path, metadata: dict | None = None) -> TrajectoryDataset:
    """Parse a trajectory CSV with header ``scan,re_1,im_1,re_2,im_2[,...]``.

    Ragged rows, non-numeric cells, and non-monotone scan columns raise
    :class:`IngestError` naming the offending line.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("line 1: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 5 or (len(header) - 1) % 2 != 0:
            raise IngestError(
                "line 1: header must be scan followed by re_<k>,im_<k> pairs"
            )
        mode_names = []
        for k in range(1, len(header), 2):
            re_col, im_col = header[k], header[k + 1]
            if not (re_col.startswith("re_") and im_col.startswith("im_")):
                raise IngestError(
                    f"line 1: expected re_<k>,im_<k> pair, got {re_col!r},{im_col!r}"
                )
            if re_col[3:] != im_col[3:]:
                raise IngestError(
                    f"line 1: mismatched pair {re_col!r},{im_col!r}"
                )
            mode_names.append(re_col[3:])

        scan: list[float] = []
        series: list[list[complex]] = [[] for _ in mode_names]
        for row in reader:
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

    if len(scan) < 2:
        raise IngestError(f"line {2 + len(scan)}: need at least 2 data rows")
    return TrajectoryDataset(
        scan_name=header[0],
        scan_values=np.array(scan),
        modes={name: np.array(vals) for name, vals in zip(mode_names, series)},
        metadata=dict(metadata or {}),
    )


def write_trajectory_csv(path, traj: ScanTrajectory) -> None:
    """Write a matched trajectory so it round-trips through ingest_csv."""
    columns = (traj.ts, traj.branch_a.real, traj.branch_a.imag,
               traj.branch_b.real, traj.branch_b.imag)
    rows = map("{!r},{!r},{!r},{!r},{!r}\n".format, *(c.tolist() for c in columns))
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write("scan,re_1,im_1,re_2,im_2\n")
        handle.writelines(rows)


def write_sheetgrid_csv(path, grid: SheetGrid) -> None:
    """Long-format grid export, one row per node.

    Raw mode writes ``p1,p2,re1,im1,re2,im2,is_cut_edge``. Delta mode writes
    ``p1,p2,re1,im1,is_cut_edge``: there sheet2 == -sheet1 by definition,
    which the manifest's ``delta_mode`` records.
    """
    sheets = ((grid.sheet1,) if grid.delta_mode == DELTA
              else (grid.sheet1, grid.sheet2))
    flagged = np.zeros(grid.sheet1.shape, dtype=int)
    nodes = np.array(grid.cut_cells.all_edges(), dtype=int).reshape(-1, 2)
    flagged[nodes[:, 0], nodes[:, 1]] = 1
    # each axis value is formatted once; repr is most of the cost
    p1 = [f"{x!r}," for x in grid.axis1.tolist()]
    p2 = [f"{y!r}," for y in grid.axis2.tolist()]
    names, columns = [], []
    for k, sheet in enumerate(sheets, start=1):
        names += [f"re{k}", f"im{k}"]
        columns += [sheet.real, sheet.imag]
    rows = map(("{}" + "{!r}," * len(names) + "{}\n").format,
               (a + b for a in p1 for b in p2),
               *(np.ravel(c).tolist() for c in (*columns, flagged)))
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(",".join(["p1", "p2", *names, "is_cut_edge"]) + "\n")
        handle.writelines(rows)


def read_plane_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The n and chi columns of a plane-point CSV with header ``n,chi``.

    Infinite cells are allowed (the point at infinity); an empty file, a
    row with fewer than two cells, and a non-numeric or NaN cell raise
    :class:`IngestError` naming the offending line.
    """
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("line 1: empty file") from None
        if [h.strip() for h in header[:2]] != ["n", "chi"]:
            raise ValueError(f"{path}: expected header n,chi")
        points: list[tuple[float, float]] = []
        for row in reader:
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
    columns = np.asarray(points, dtype=float).T.tolist()
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write("tn,tchi,txi\n")
        handle.writelines(map("{!r},{!r},{!r}\n".format, *columns))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):  # before int, which bool subclasses
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def write_json(path, payload: dict) -> None:
    """Strict JSON with sorted keys; NaN and infinities are written as null."""
    path = Path(path)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")
