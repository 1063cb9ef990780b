"""The workloads of the epkit benchmark, run by run.py in a child process.

A single closed-loop client with no threads calls ``epkit.cli.main(argv)``
in-process: each command starts when the previous one has returned. One
iteration of a workload is a fixed list of CLI commands; the seed only
jitters their inputs. Only the CLI calls are timed. Input preparation and
the checks that follow every call run outside the timed region.

An operation is one CLI call plus the checks of its artifacts; it fails when
the call exits non-zero or a check disagrees with a reference the benchmark
computes itself, in closed form where one exists.

The child prints one JSON line with the measured values; run.py adds the
set-up figures and the units and prints the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy

import epkit
from epkit import cli

import tracing

ROOT = Path(__file__).resolve().parent.parent

# Presets the checks re-derive, with the parameters the generated inputs use.
DOUBLE_EP = {"g_c": 0.05, "beta": 1.0, "gamma1": 1.05, "gamma2": 1.05}
SWEEP_LABELS = {"class1": "LZ", "class2": "WB", "class3a": "WB",
                "class3b": "WB", "class4": "WB", "class5": "LZ",
                "double-ep": "WB"}
INGEST_PRESET = "class2"
INGEST_PARAMS = {"g_c": 0.043, "beta": 0.78, "gamma1": 1.05, "gamma2": 1.07}
TOY_WINDOW = (0.3, 0.8, 0.9, 1.0)
SWEEP_RANGE = (0.2, 1.0)
BETA_WINDOW = (0.7, 0.85)
BETA_C_RANGE = (0.76, 0.78)
CAVITY_EPS = ((2.6257, 0.6001), (2.9036, 0.5372))
ORACLE_WINDOW = (2.5, 3.0, 0.45, 0.7)
RECT = ((0.40, 0.95), (0.68, 0.95), (0.68, 1.05), (0.40, 1.05))
SEARCH_WINDOW = (0.3, 0.8, 0.9, 1.1)
PAPER_EP_ALPHAS = (0.454, 0.621)

SHEET_TOL = 1e-12      # sheet values and sphere points against closed form
CUT_CELLS = 2          # cut ends within this many cells of an EP
SCAN_EP_TOL = 1e-3     # scan roots against the paper's EP positions
SEARCH_EP_TOL = 1e-4   # grid-search EPs against the closed-form roots
SHEET_SAMPLES = 64     # seeded random cells checked per surface
PROBE_EVERY_S = 0.5    # seconds of CLI calls between two host-speed probes
PROBE_LOOP = 150_000   # interpreter steps of one probe
PROBE_CALLS = 1500     # small numpy calls of one probe


@dataclass(frozen=True)
class Sizes:
    grid: tuple[int, int] = (256, 128)
    points: int = 4001
    loops: int = 20  # per case
    steps: int = 256
    coarse: int = 48


FULL = Sizes()
SMALL = Sizes(grid=(64, 32), points=401, loops=2, steps=64)


class CheckFailed(Exception):
    """An artifact disagrees with its reference."""


@dataclass
class Op:
    """One CLI call, the directory it writes, and the check of its output."""

    argv: list[str]
    out: Path
    check: Callable[[], None]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    ops: list[Op]
    items: int  # work per iteration at the stated sizes


@dataclass
class Ledger:
    """Operations attempted and failed; a failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def settle(self, op: Op, code: int) -> None:
        """Count one operation from its exit code and its checks."""
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            op.check()
        except Exception as exc:  # a check that cannot run fails the operation
            self.fail(op, exc)
        else:
            self.attempted += 1

    def fail(self, op: Op, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{' '.join(op.argv[:3])}: "
                               f"{type(exc).__name__}: {exc}")


# ---- closed-form references -------------------------------------------------

def toy_eta(alpha, beta, p):
    """Half-splitting eta of the toy Hamiltonian, up to sign."""
    alpha = np.asarray(alpha, dtype=float)
    xi1 = (1.0 - 0.5 * alpha) + 1j * p["gamma1"]
    xi2 = np.sqrt(alpha) + 1j * p["gamma2"]
    d = xi1 - xi2
    g = p["g_c"] * ((1.0 - beta) + 1j * beta) * np.exp(-(d * d))
    return np.sqrt(0.25 * d * d + g * g), 0.5 * (xi1 + xi2)


def double_ep_alphas(g_c=DOUBLE_EP["g_c"]):
    """EP positions of the double-EP preset in closed form.

    With equal widths and beta = 1 the level difference d = 1 - alpha/2 -
    sqrt(alpha) is real and eta^2 = d^2/4 - g_c^2 exp(-2 d^2), which vanishes
    at d = +/-d0 with d0/2 = g_c exp(-d0^2). Solving d = 1 - s^2/2 - s for
    s = sqrt(alpha) gives s = sqrt(3 - 2d) - 1.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * mid - g_c * np.exp(-mid * mid) < 0:
            lo = mid
        else:
            hi = mid
    d0 = 0.5 * (lo + hi)
    return tuple(float((np.sqrt(3.0 - 2.0 * d) - 1.0) ** 2) for d in (d0, -d0))


def oracle_sheet(p1, p2, z1, z2):
    z = np.asarray(p1) + 1j * np.asarray(p2)
    return np.sqrt((z - complex(*z1)) * (z - complex(*z2)))


def plane_to_sphere(n, chi):
    r2 = n * n + chi * chi
    return np.stack([2.0 * n, 2.0 * chi, r2 - 1.0], axis=-1) / (r2 + 1.0)[..., None]


# ---- artifact readers and checks ---------------------------------------------

def _read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _components(edges):
    """Connected groups of cut edges, as node sets.

    Edges join when they share a node or border the same grid plaquette
    (the rule the README states for cut components).
    """
    edges = [(tuple(u), tuple(v)) for u, v in edges]
    parent = list(range(len(edges)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    seen = {}
    for k, (u, v) in enumerate(edges):
        if u[1] == v[1]:
            i = min(u[0], v[0])
            cells = [("c", i, u[1] - 1), ("c", i, u[1])]
        else:
            j = min(u[1], v[1])
            cells = [("c", u[0] - 1, j), ("c", u[0], j)]
        for key in [("n",) + u, ("n",) + v] + cells:
            if key in seen:
                parent[find(k)] = find(seen[key])
            seen[key] = k
    groups = {}
    for k, (u, v) in enumerate(edges):
        groups.setdefault(find(k), set()).update((u, v))
    return list(groups.values())


def _surface_meta(path: Path, shape):
    """Axes and cut edges of a surface JSON with no missing cells."""
    meta = _read_json(path)
    axis1, axis2 = np.array(meta["axis1"]), np.array(meta["axis2"])
    _require((axis1.size, axis2.size) == shape,
             f"axes {axis1.size}x{axis2.size}, expected {shape[0]}x{shape[1]}")
    _require(not meta["missing"], f"{len(meta['missing'])} missing cells")
    return axis1, axis2, meta["cut_edges"]


def _check_sheets(path: Path, rows, n_cells: int, exact) -> None:
    """Sheet values at the given CSV rows equal +/- the closed form."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(len(lines) - 1 == n_cells,
             f"{path.name}: {len(lines) - 1} rows, expected {n_cells}")
    col = {name: k for k, name in enumerate(lines[0].split(","))}
    cells = np.array([[float(c) for c in lines[1 + r].split(",")] for r in rows])
    sheet1 = cells[:, col["re1"]] + 1j * cells[:, col["im1"]]
    ref = exact(cells[:, col["p1"]], cells[:, col["p2"]])
    err = np.minimum(np.abs(sheet1 - ref), np.abs(sheet1 + ref))
    _require(err.max() <= SHEET_TOL, f"{path.name}: sheet off by {err.max():.3g}")
    if "re2" in col:
        sheet2 = cells[:, col["re2"]] + 1j * cells[:, col["im2"]]
        gap = np.abs(sheet1 + sheet2).max()
        _require(gap <= SHEET_TOL, f"{path.name}: sheet2 != -sheet1 by {gap:.3g}")


def check_toy_surface(out: Path, shape, rows) -> None:
    """Real cut joins the two EPs; two imaginary cuts leave them outward."""
    axis1, _, cuts = _surface_meta(out / "surface.json", shape)
    ep1, ep2 = double_ep_alphas()
    reach = CUT_CELLS * (axis1[1] - axis1[0])

    re = _components(cuts["re"])
    _require(len(re) == 1, f"{len(re)} re cut components, expected 1")
    span = axis1[sorted(i for i, _ in re[0])]
    _require(abs(span[0] - ep1) <= reach and abs(span[-1] - ep2) <= reach,
             f"re cut spans {span[0]:.4f}..{span[-1]:.4f}, EPs {ep1:.4f}/{ep2:.4f}")

    im = sorted(_components(cuts["im"]), key=lambda c: min(c))
    _require(len(im) == 2, f"{len(im)} im cut components, expected 2")
    left, right = (axis1[sorted(i for i, _ in comp)] for comp in im)
    _require(left[0] == axis1[0] and abs(left[-1] - ep1) <= reach,
             f"left im cut spans {left[0]:.4f}..{left[-1]:.4f}")
    _require(right[-1] == axis1[-1] and abs(right[0] - ep2) <= reach,
             f"right im cut spans {right[0]:.4f}..{right[-1]:.4f}")

    _check_sheets(out / "surface.csv", rows, shape[0] * shape[1],
                  lambda a, b: toy_eta(a, b, DOUBLE_EP)[0])


def cut_nodes(meta_path: Path):
    """Plane coordinates of every node on a cut edge, in grid order."""
    meta = _read_json(meta_path)
    axis1, axis2 = meta["axis1"], meta["axis2"]
    nodes = sorted({tuple(node) for kind in ("matched", "re", "im")
                    for edge in meta["cut_edges"][kind] for node in edge})
    return [(axis1[i], axis2[j]) for i, j in nodes]


def check_oracle_surface(out: Path, shape, rows) -> None:
    """Every branch point ends a matched cut; sheets are +/- the oracle."""
    axis1, axis2, cuts = _surface_meta(out / "oracle_surface.json", shape)
    nodes = np.array(sorted({tuple(n) for edge in cuts["matched"] for n in edge}))
    _require(nodes.size > 0, "no matched cut edges")
    cell1, cell2 = axis1[1] - axis1[0], axis2[1] - axis2[0]
    for x, y in CAVITY_EPS:
        dist = np.maximum(np.abs(axis1[nodes[:, 0]] - x) / cell1,
                          np.abs(axis2[nodes[:, 1]] - y) / cell2).min()
        _require(dist <= CUT_CELLS,
                 f"nearest cut node {dist:.2f} cells from branch point {x}, {y}")
    _check_sheets(out / "oracle_surface.csv", rows, shape[0] * shape[1],
                  lambda a, b: oracle_sheet(a, b, *CAVITY_EPS))


def write_plane_csv(points, path: Path) -> None:
    lines = ["n,chi"] + [f"{n!r},{chi!r}" for n, chi in points]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_sphere(plane_csv: Path, out: Path) -> None:
    """One lifted point per input, each unit-norm and at its closed form."""
    plane = np.loadtxt(plane_csv, delimiter=",", skiprows=1, ndmin=2)
    lifted = np.loadtxt(out / "sphere.csv", delimiter=",", skiprows=1, ndmin=2)
    _require(lifted.shape == (plane.shape[0], 3),
             f"{lifted.shape[0]} lifted points for {plane.shape[0]} inputs")
    norm_err = np.abs(np.linalg.norm(lifted, axis=1) - 1.0).max()
    _require(norm_err <= SHEET_TOL, f"lifted norm off by {norm_err:.3g}")
    err = np.abs(lifted - plane_to_sphere(plane[:, 0], plane[:, 1])).max()
    _require(err <= SHEET_TOL, f"lifted points off by {err:.3g}")


def check_label(path: Path, label: str) -> None:
    got = _read_json(path)["report"]["label"]
    _require(got == label, f"label {got}, expected {label}")


def check_beta_c(path: Path) -> None:
    beta_c = _read_json(path)["beta_c"]
    lo, hi = BETA_C_RANGE
    _require(lo <= beta_c <= hi, f"beta_c {beta_c} outside [{lo}, {hi}]")


def check_scan_roots(path: Path) -> None:
    got = [ep["p1"] for ep in _read_json(path)["eps"]]
    _require(len(got) == 2 and all(abs(g - w) <= SCAN_EP_TOL
                                    for g, w in zip(got, PAPER_EP_ALPHAS)),
             f"scan roots {got}, expected {PAPER_EP_ALPHAS}")


def check_grid_search(path: Path) -> None:
    """Two EPs at the closed-form roots, which the scan roots match."""
    got = [(ep["p1"], ep["p2"]) for ep in _read_json(path)["eps"]]
    want = [(a, DOUBLE_EP["beta"]) for a in double_ep_alphas()]
    _require(len(got) == 2 and all(
        abs(g[0] - w[0]) <= SEARCH_EP_TOL and abs(g[1] - w[1]) <= SEARCH_EP_TOL
        for g, w in zip(got, want)), f"grid-search EPs {got}, expected {want}")


def check_loop(path: Path, permutation: str, enclosed: Optional[int]) -> None:
    result = _read_json(path)
    _require(result["permutation"] == permutation,
             f"{result['permutation']}, expected {permutation}")
    if enclosed is not None:
        got = len(result["enclosed_eps"])
        _require(got == enclosed, f"{got} enclosed EPs, expected {enclosed}")


# ---- workloads ------------------------------------------------------------------

def _f(x: float) -> str:
    return repr(float(x))


def atlas(seed: int, sizes: Sizes, work: Path) -> Workload:
    """Toy surface, oracle surface, then the oracle cut nodes on the sphere."""
    rng = np.random.default_rng(seed)
    a0, a1, b0, _ = TOY_WINDOW
    window = (a0 + rng.uniform(-0.01, 0.01), a1 + rng.uniform(-0.01, 0.01),
              b0 + rng.uniform(-0.005, 0.005), rng.uniform(1.0, 1.005))
    n1, n2 = sizes.grid
    grid = f"{n1}x{n2}"
    toy_rows = rng.choice(n1 * n2, SHEET_SAMPLES, replace=False)
    oracle_rows = rng.choice(n1 * n2, SHEET_SAMPLES, replace=False)
    toy, oracle, sphere = work / "toy", work / "oracle", work / "sphere"
    plane_csv = work / "cut_nodes.csv"
    (z1, z2) = CAVITY_EPS
    ops = [
        Op(["surface", "--preset", "double-ep",
            "--window", *map(_f, window), "--grid", grid,
            "--delta-mode", "delta", "--out", str(toy)],
           toy, partial(check_toy_surface, toy, (n1, n2), toy_rows)),
        Op(["oracle", "--mode", "surface", "--kind", "two-point",
            "--z1", *map(_f, z1), "--z2", *map(_f, z2),
            "--window", *map(_f, ORACLE_WINDOW), "--grid", grid,
            "--delta-mode", "delta", "--out", str(oracle)],
           oracle, partial(check_oracle_surface, oracle, (n1, n2), oracle_rows)),
        Op(["project", "--input", str(plane_csv), "--out", str(sphere)],
           sphere, partial(check_sphere, plane_csv, sphere),
           prepare=lambda: write_plane_csv(
               cut_nodes(oracle / "oracle_surface.json"), plane_csv)),
    ]
    return Workload(ops, items=2 * n1 * n2)


def write_ingest_csv(path: Path, alphas, rng) -> None:
    """An external-solver-style CSV: the pair order is random on every row."""
    eta, mean = toy_eta(alphas, INGEST_PARAMS["beta"], INGEST_PARAMS)
    pairs = np.stack([mean + eta, mean - eta], axis=1)
    swap = rng.random(alphas.size) < 0.5
    pairs[swap] = pairs[swap, ::-1]
    lines = ["scan,re_1,im_1,re_2,im_2"]
    for t, (a, b) in zip(alphas, pairs):
        lines.append(f"{_f(t)},{_f(a.real)},{_f(a.imag)},{_f(b.real)},{_f(b.imag)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def scan(seed: int, sizes: Sizes, work: Path) -> Workload:
    """Seven class sweeps, beta_c, scan roots and an ingested external CSV."""
    rng = np.random.default_rng(seed)
    lo = SWEEP_RANGE[0] + rng.uniform(-0.02, 0.02)
    hi = SWEEP_RANGE[1] + rng.uniform(-0.02, 0.02)
    points = str(sizes.points)
    ops = []
    for preset, label in SWEEP_LABELS.items():
        out = work / preset
        ops.append(Op(["toy-sweep", "--preset", preset, "--alpha-range",
                       _f(lo), _f(hi), "--points", points, "--out", str(out)],
                      out, partial(check_label, out / "toy_sweep_report.json", label)))
    out = work / "beta"
    ops.append(Op(["beta-scan", "--preset", "transition", "--alpha-range",
                   _f(lo), _f(hi), "--points", points,
                   "--beta-window", *map(_f, BETA_WINDOW), "--out", str(out)],
                  out, partial(check_beta_c, out / "beta_scan.json")))
    out = work / "roots"
    ops.append(Op(["find-eps", "--preset", "double-ep", "--out", str(out)],
                  out, partial(check_scan_roots, out / "find_eps.json")))
    work.mkdir(parents=True, exist_ok=True)
    ingest = work / "external.csv"
    write_ingest_csv(ingest, np.linspace(lo, hi, sizes.points), rng)
    out = work / "ingest"
    ops.append(Op(["ingest-classify", "--input", str(ingest), "--out", str(out)],
                  out, partial(check_label, out / "ingest_classify.json",
                               SWEEP_LABELS[INGEST_PRESET])))
    return Workload(ops, items=(len(SWEEP_LABELS) + 2) * sizes.points)


def monodromy(seed: int, sizes: Sizes, work: Path) -> Workload:
    """Perturbed loops around EP1, EP2 and both, then a 2-D grid EP search."""
    rng = np.random.default_rng(seed)
    ep1, ep2 = double_ep_alphas()
    cases = []
    for base in (ep1, ep2):
        for _ in range(sizes.loops):
            center = [base + rng.uniform(-0.01, 0.01), 1.0 + rng.uniform(-0.01, 0.01)]
            loop = {"kind": "circle", "center": center,
                    "radius": rng.uniform(0.02, 0.06)}
            cases.append((loop, "swap", 1))
    for _ in range(sizes.loops):
        vertices = [[x + rng.uniform(-0.005, 0.005), y + rng.uniform(-0.005, 0.005)]
                    for x, y in RECT]
        cases.append(({"kind": "polyline", "vertices": vertices}, "identity", 2))

    (work / "loops").mkdir(parents=True, exist_ok=True)
    steps = str(sizes.steps)
    ops = []
    for k, (loop, permutation, enclosed) in enumerate(cases):
        config = work / "loops" / f"loop{k:03d}.json"
        config.write_text(json.dumps({"loop": loop}), encoding="utf-8")
        toy, oracle = work / f"toy{k:03d}", work / f"oracle{k:03d}"
        ops.append(Op(["encircle", "--preset", "double-ep", "--config", str(config),
                       "--steps", steps, "--out", str(toy)],
                      toy, partial(check_loop, toy / "encircle.json",
                                   permutation, enclosed)))
        ops.append(Op(["oracle", "--mode", "encircle", "--kind", "two-point",
                       "--z1", _f(ep1), _f(DOUBLE_EP["beta"]),
                       "--z2", _f(ep2), _f(DOUBLE_EP["beta"]),
                       "--config", str(config), "--steps", steps, "--out", str(oracle)],
                      oracle, partial(check_loop, oracle / "oracle_encircle.json",
                                      permutation, None)))
    out = work / "search"
    ops.append(Op(["find-eps", "--preset", "double-ep",
                   "--window", *map(_f, SEARCH_WINDOW),
                   "--grid", f"{sizes.coarse}x{sizes.coarse}", "--out", str(out)],
                  out, partial(check_grid_search, out / "find_eps.json")))
    return Workload(ops, items=2 * len(cases) * sizes.steps + sizes.coarse ** 2)


WORKLOADS = {"atlas": atlas, "scan": scan, "monodromy": monodromy}


# ---- measurement --------------------------------------------------------------------

def _call(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments by exiting
        return exc.code if isinstance(exc.code, int) else 2


def probe() -> float:
    """Seconds a fixed computation that does not use epkit takes now.

    On a shared host the same iteration runs up to 1.8x faster for tens of
    seconds at a time, when its neighbours are idle, so seconds alone differ
    from run to run by more than a change to epkit would. The probe mixes
    interpreter work and small numpy calls, as the workloads do; its time
    follows the host's speed, and a CLI time divided by it does not.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOP):
        total += i * i
    x = np.arange(64.0)
    for _ in range(PROBE_CALLS):
        x = np.sqrt(x + 1.0)
    return time.perf_counter() - start


def run_iteration(ops: list[Op], ledger: Ledger) -> tuple[float, float]:
    """Run every operation once.

    Returns the seconds spent inside CLI calls, and those seconds in probe
    units: the calls are timed in segments of at least ``PROBE_EVERY_S``
    seconds, and each segment is divided by the mean of the probes run just
    before and just after it.
    """
    busy, in_probes, segment, before = 0.0, 0.0, 0.0, probe()
    for k, op in enumerate(ops):
        shutil.rmtree(op.out, ignore_errors=True)
        try:
            if op.prepare is not None:
                op.prepare()
        except Exception as exc:  # e.g. the artifact it reads is missing
            ledger.fail(op, exc)
        else:
            start = time.perf_counter()
            code = _call(op.argv)
            elapsed = time.perf_counter() - start
            busy += elapsed
            segment += elapsed
            ledger.settle(op, code)
        if segment >= PROBE_EVERY_S or k == len(ops) - 1:
            after = probe()
            in_probes += segment / (0.5 * (before + after))
            before, segment = after, 0.0
    return busy, in_probes


def measure(ops, ledger, seconds, after_each=None) -> tuple[list[float], list[float]]:
    """Iterate while another iteration, as long as the last, fits in ``seconds``.

    Runs at least once. Returns the CLI seconds of every iteration and the
    same in probe units.
    """
    walls, in_probes = [], []
    start = now = time.perf_counter()
    took = 0.0
    while not walls or now + took - start <= seconds:
        wall, cost = run_iteration(ops, ledger)
        walls.append(wall)
        in_probes.append(cost)
        if after_each is not None:
            after_each()
        took = time.perf_counter() - now
        now += took
    return walls, in_probes


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not Path(epkit.__file__).resolve().is_relative_to(src):
        print(f"epkit imported from {epkit.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    build = WORKLOADS[args.workload]
    # A small untimed pass loads lazy imports and fills the caches.
    run_iteration(build(args.seed, SMALL, work / "warm").ops, Ledger())
    workload = build(args.seed, SMALL if args.small else FULL, work / "run")
    ledger = Ledger()

    report = {"workload": args.workload, "seed": args.seed,
              "environment": environment()}
    if args.trace:
        walls, in_probes = measure(workload.ops, ledger, args.seconds / 2)
        tracer = tracing.Tracer()
        report["installed"] = tracing.install(tracer)
        layers, spans = [], []

        def collect():
            spans[:] = tracer.take()
            layers.append(tracing.layer_metrics(spans))

        traced, traced_in_probes = measure(workload.ops, ledger, args.seconds / 2, collect)
        tracing.write_spans(work / "spans.csv", spans)
        # times take the median; counts repeat, and median_low keeps them whole
        values = {name: (statistics.median if isinstance(value, float)
                         else statistics.median_low)([layer[name] for layer in layers])
                  for name, value in layers[0].items()}
        values["trace.overhead"] = (statistics.median(traced_in_probes)
                                    / statistics.median(in_probes) - 1.0)
        report["traced_walls"] = traced
        counts = [{k: v for k, v in layer.items() if not k.endswith(("_s", "ratio"))}
                  for layer in layers]
        if any(c != counts[0] for c in counts):
            print("warning: counts differ between traced iterations", file=sys.stderr)
    else:
        walls, in_probes = measure(workload.ops, ledger, args.seconds)
        values = {"wall_per_probe": statistics.median(in_probes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    report.update(walls=walls, in_probes=in_probes, items=workload.items, values=values,
                  attempted=ledger.attempted, failed=ledger.failed,
                  errors=ledger.errors)
    for line in ledger.errors:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
