"""Per-row readers of the trajectory and plane-point CSVs, kept as references.

``epkit.io`` reads the data cells of both files with one ``np.loadtxt``
call; test_ingest_reference.py checks it against the straightforward code
here, which parses one cell at a time with ``float`` and stops at the first
bad line. Beside the per-cell reading of earlier versions, these readers
require ``MIN_SCAN_POINTS`` (3) trajectory rows, naming the file's last
line, and reject a plane header other than ``n,chi`` as an ``IngestError``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from epkit.io import IngestError, TrajectoryDataset


def _number(text: str, line_num: int, column: str, finite: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise IngestError(
            f"line {line_num}: non-numeric value {text!r} in column {column!r}"
        ) from None
    if math.isnan(value):
        raise IngestError(f"line {line_num}: NaN in column {column!r}")
    if finite and math.isinf(value):
        raise IngestError(f"line {line_num}: infinite value in column {column!r}")
    return value


def ingest_csv(path) -> TrajectoryDataset:
    with Path(path).open(newline="", encoding="utf-8") as handle:
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
            value = _number(row[0], line_num, header[0], finite=True)
            if scan:
                step = value - scan[-1]
                direction = (math.copysign(1.0, scan[1] - scan[0])
                             if len(scan) > 1 else None)
                if step == 0 or (direction is not None and step * direction <= 0):
                    raise IngestError(
                        f"line {line_num}: scan value {value!r} breaks strict"
                        " monotonicity"
                    )
            scan.append(value)
            for m, name in enumerate(mode_names):
                re = _number(row[1 + 2 * m], line_num, f"re_{name}", finite=True)
                im = _number(row[2 + 2 * m], line_num, f"im_{name}", finite=True)
                series[m].append(complex(re, im))
        if len(scan) < 3:
            raise IngestError(f"line {reader.line_num}: need at least 3 data"
                              f" rows, got {len(scan)}")
    return TrajectoryDataset(
        scan_name=header[0],
        scan_values=np.array(scan),
        modes={name: np.array(vals) for name, vals in zip(mode_names, series)},
    )


def read_plane_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError("line 1: empty file") from None
        if [h.strip() for h in header[:2]] != ["n", "chi"]:
            raise IngestError("line 1: expected header n,chi")
        points: list[tuple[float, float]] = []
        for row in reader:
            line_num = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise IngestError(
                    f"line {line_num}: expected 2 cells, got {len(row)}")
            points.append((_number(row[0], line_num, "n", finite=False),
                           _number(row[1], line_num, "chi", finite=False)))
    return np.array(points, dtype=float).reshape(-1, 2).T
