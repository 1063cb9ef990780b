"""The ``str.format`` CSV writers of earlier versions, kept as a reference.

``epkit.io`` writes its three CSV kinds through one block-streamed row
writer (``_write_csv``) whose cells come from a numpy shortest-``repr``
kernel (``_reprs``, Schubfach digits from the float64 bits);
test_csv_reference.py checks it byte for byte against the straightforward
code here, which formats each row with one ``str.format`` call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from epkit.crossing import ScanTrajectory
from epkit.surface import DELTA, SheetGrid


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

    Raw mode writes ``p1,p2,re1,im1,re2,im2``. Delta mode writes
    ``p1,p2,re1,im1``: there sheet2 == -sheet1 by definition, which the
    manifest's ``delta_mode`` records. The cuts are the manifest's alone.
    """
    sheets = ((grid.sheet1,) if grid.delta_mode == DELTA
              else (grid.sheet1, grid.sheet2))
    # each axis value is formatted once; repr is most of the cost
    p1 = [f"{x!r}," for x in grid.axis1.tolist()]
    p2 = [f"{y!r}," for y in grid.axis2.tolist()]
    names, columns = [], []
    for k, sheet in enumerate(sheets, start=1):
        names += [f"re{k}", f"im{k}"]
        columns += [sheet.real, sheet.imag]
    rows = map(("{}" + ",".join(["{!r}"] * len(names)) + "\n").format,
               (a + b for a in p1 for b in p2),
               *(np.ravel(c).tolist() for c in columns))
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write(",".join(["p1", "p2", *names]) + "\n")
        handle.writelines(rows)


def write_sphere_csv(path, points: np.ndarray) -> None:
    """Write (N, 3) sphere points as ``tn,tchi,txi`` rows."""
    columns = np.asarray(points, dtype=float).T.tolist()
    with Path(path).open("w", newline="\n", encoding="utf-8") as handle:
        handle.write("tn,tchi,txi\n")
        handle.writelines(map("{!r},{!r},{!r}\n".format, *columns))
