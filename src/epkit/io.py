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
from typing import Sequence

import numpy as np

from .crossing import ScanTrajectory, match_branches
from .sphere import SpherePoint
from .surface import SheetGrid


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
        ts = self.scan_values
        pairs = np.stack([self.modes[mode_a], self.modes[mode_b]], axis=1)
        if ts[0] > ts[-1]:
            ts, pairs = ts[::-1], pairs[::-1]
        return match_branches(ts, pairs)


def _parse_float(text: str, line_num: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(
            f"line {line_num}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if math.isnan(value):
        raise IngestError(f"line {line_num}: NaN in column {column!r}")
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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path, traj: ScanTrajectory) -> None:
    """Write a matched trajectory so it round-trips through ingest_csv."""
    columns = (traj.ts, traj.branch_a.real, traj.branch_a.imag,
               traj.branch_b.real, traj.branch_b.imag)
    rows = map("{!r},{!r},{!r},{!r},{!r}\n".format, *(c.tolist() for c in columns))
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write("scan,re_1,im_1,re_2,im_2\n")
        handle.writelines(rows)


def write_sheetgrid_csv(path, grid: SheetGrid) -> None:
    """Long-format grid export: p1, p2, re1, im1, re2, im2, is_cut_edge."""
    flagged = set()
    for u, v in grid.cut_cells.all_edges():
        flagged.add(u)
        flagged.add(v)
    path = Path(path)
    with path.open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["p1", "p2", "re1", "im1", "re2", "im2", "is_cut_edge"])
        for i, p1 in enumerate(grid.axis1):
            for j, p2 in enumerate(grid.axis2):
                s1, s2 = grid.sheet1[i, j], grid.sheet2[i, j]
                writer.writerow([
                    _fmt(p1), _fmt(p2),
                    _fmt(s1.real), _fmt(s1.imag),
                    _fmt(s2.real), _fmt(s2.imag),
                    int((i, j) in flagged),
                ])


def write_sphere_csv(path, points: Sequence[SpherePoint]) -> None:
    path = Path(path)
    with path.open("w", newline="\n", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["tn", "tchi", "txi"])
        for s in points:
            writer.writerow([_fmt(s.tn), _fmt(s.tchi), _fmt(s.txi)])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, payload: dict) -> None:
    path = Path(path)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")
