"""Command-line interface.

Configuration is resolved in layers: command defaults, then a JSON config
file (--config), then a named preset (--preset), then explicit flags;
later layers win. Every JSON artifact embeds the fully resolved config,
and all outputs are deterministic for a fixed config (repeat runs produce
byte-identical files).

Subcommands: toy-sweep, find-eps, surface, encircle, beta-scan, project,
ingest-classify, oracle. Errors exit nonzero after printing a
machine-readable JSON description to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as io_mod
from .crossing import beta_transition, classify, overlap_peaks, sweep_toy
from .epfind import grid_ep_search, toy_ep_roots
from .sphere import lift_cut
from .surface import (AnalyticOracle, CircleLoop, PolylineLoop, build_surface,
                      encircle)
from .toymodel import PRESETS, ToyParams, eigenpair_sampler

CAVITY_EP1 = (2.6257, 0.6001)
CAVITY_EP2 = (2.9036, 0.5372)

_PARAM_KEYS = ("g_c", "beta", "gamma1", "gamma2", "lambda_mode")

_DEFAULTS = {
    "toy-sweep": {
        "params": dict(PRESETS["class1"]["params"]),
        "alpha_range": [0.2, 1.0],
        "points": 801,
    },
    "find-eps": {
        "params": dict(PRESETS["double-ep"]["params"]),
        "window": None,  # set to [a0, a1, b0, b1] for the 2-D grid search
    },
    "surface": {
        "params": dict(PRESETS["double-ep"]["params"]),
        "window": [0.3, 0.8, 0.9, 1.0],
        "grid": "256x64",
        "delta_mode": "delta",
    },
    "encircle": {
        "params": dict(PRESETS["double-ep"]["params"]),
        "loop": {"kind": "rect", "window": [0.40, 0.68, 0.95, 1.05]},
        "steps": 256,
    },
    "beta-scan": {
        "params": dict(PRESETS["transition"]["params"]),
        "beta_window": [0.7, 0.85],
        "alpha_range": [0.2, 1.0],
        "points": 801,
        "tolerance": 1e-3,
    },
    "project": {"points": []},
    "ingest-classify": {"modes": None, "metadata": {}},
    "oracle": {"kind": "two-point", "mode": "surface"},
}

# The keys only one mode of a command reads, with their defaults. A run
# records and accepts only the keys of its own modes.
_MODE_DEFAULTS = {
    "find-eps": {
        "--window": {"grid": "48x48"},
        "without --window": {"alpha_bracket": [0.3, 0.8], "tolerance": 1e-10},
    },
    "oracle": {
        "--kind two-point": {"z1": list(CAVITY_EP1), "z2": list(CAVITY_EP2)},
        "--kind single-point": {"z0": [0.0, 0.0], "order": 2},
        "--mode surface": {"window": [2.5, 3.0, 0.45, 0.7], "grid": "256x64",
                           "delta_mode": "delta"},
        "--mode encircle": {
            "loop": {"kind": "circle", "center": list(CAVITY_EP1),
                     "radius": 0.05},
            "steps": 256,
        },
    },
}


def _add_common(sub, grid=False):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", default=".", help="output directory")
    if grid:
        sub.add_argument("--grid", metavar="N1xN2", help="grid resolution, e.g. 256x64")


def _add_params(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="named toy-model parameter set")
    sub.add_argument("--g-c", type=float, default=None, dest="g_c")
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma1", type=float, default=None)
    sub.add_argument("--gamma2", type=float, default=None)
    sub.add_argument("--lambda-mode", default=None, dest="lambda_mode",
                     choices=["full-complex-difference", "real-part-difference"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exceptional-point analysis of 2x2 non-Hermitian Hamiltonians",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("toy-sweep", help="1-D scan: trajectory CSV + class report")
    _add_common(sweep)
    _add_params(sweep)
    sweep.add_argument("--alpha-range", type=float, nargs=2, default=None)
    sweep.add_argument("--points", type=int, default=None)

    find = subs.add_parser("find-eps", help="EP roots of the toy splitting")
    _add_common(find, grid=True)
    _add_params(find)
    find.add_argument("--tolerance", type=float, default=None,
                      help="EP residual bound of the scan-roots search")
    find.add_argument("--alpha-bracket", type=float, nargs=2, default=None)
    find.add_argument("--window", type=float, nargs=4, default=None,
                      metavar=("P1LO", "P1HI", "P2LO", "P2HI"),
                      help="run the generic 2-D grid search over (alpha, beta)")

    surf = subs.add_parser("surface", help="sheet grid with branch cuts")
    _add_common(surf, grid=True)
    _add_params(surf)
    surf.add_argument("--window", type=float, nargs=4, default=None,
                      metavar=("P1LO", "P1HI", "P2LO", "P2HI"))
    surf.add_argument("--delta-mode", default=None, choices=["raw", "delta"],
                      dest="delta_mode")

    enc = subs.add_parser("encircle", help="loop monodromy of the toy model")
    _add_common(enc)
    _add_params(enc)
    enc.add_argument("--circle", type=float, nargs=3, default=None,
                     metavar=("CX", "CY", "R"))
    enc.add_argument("--rect", type=float, nargs=4, default=None,
                     metavar=("P1LO", "P1HI", "P2LO", "P2HI"))
    enc.add_argument("--steps", type=int, default=None)

    bscan = subs.add_parser("beta-scan", help="LZ-to-WB transition coefficient")
    _add_common(bscan)
    _add_params(bscan)
    bscan.add_argument("--tolerance", type=float, default=None,
                       help="beta_c bisection step")
    bscan.add_argument("--beta-window", type=float, nargs=2, default=None)
    bscan.add_argument("--alpha-range", type=float, nargs=2, default=None)
    bscan.add_argument("--points", type=int, default=None)

    proj = subs.add_parser("project", help="lift plane points/curves to the sphere")
    _add_common(proj)
    proj.add_argument("--input", default=None,
                      help="CSV with header n,chi (inf rows allowed)")
    proj.add_argument("--point", type=float, nargs=2, action="append",
                      default=None, metavar=("N", "CHI"))

    ing = subs.add_parser("ingest-classify", help="classify an external dataset")
    _add_common(ing)
    ing.add_argument("--input", required=True)
    ing.add_argument("--modes", nargs=2, default=None)
    ing.add_argument("--meta", action="append", default=None, metavar="KEY=VALUE")

    orc = subs.add_parser("oracle", help="analytic-oracle surface or loop")
    _add_common(orc, grid=True)
    orc.add_argument("--kind", default=None,
                     choices=["two-point", "single-point"])
    orc.add_argument("--z1", type=float, nargs=2, default=None, metavar=("RE", "IM"))
    orc.add_argument("--z2", type=float, nargs=2, default=None, metavar=("RE", "IM"))
    orc.add_argument("--z0", type=float, nargs=2, default=None, metavar=("RE", "IM"))
    orc.add_argument("--order", type=int, default=None)
    orc.add_argument("--mode", default=None, choices=["surface", "encircle"])
    orc.add_argument("--window", type=float, nargs=4, default=None)
    orc.add_argument("--circle", type=float, nargs=3, default=None)
    orc.add_argument("--rect", type=float, nargs=4, default=None)
    orc.add_argument("--delta-mode", default=None, choices=["raw", "delta"],
                     dest="delta_mode")
    orc.add_argument("--steps", type=int, default=None)

    return parser


def _resolve(args) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS[args.command]))  # deep copy
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if isinstance(loaded.get("params"), dict) and "params" in cfg:
            # a partial params dict overrides single defaults
            loaded["params"] = {**cfg["params"], **loaded["params"]}
        cfg.update(loaded)
    if getattr(args, "preset", None):
        cfg.setdefault("params", {})
        cfg["params"].update(PRESETS[args.preset]["params"])
        cfg["preset"] = args.preset
    if "params" in cfg:
        for key in _PARAM_KEYS:
            val = getattr(args, key, None)
            if val is not None:
                cfg["params"][key] = val
    flags = {}  # config key -> the flag that set it
    for key in ("alpha_range", "points", "alpha_bracket", "window",
                "delta_mode", "steps", "beta_window", "kind", "z1", "z2",
                "z0", "order", "mode", "input", "modes", "tolerance", "grid"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
            flags[key] = "--" + key.replace("_", "-")
    if getattr(args, "circle", None) is not None:
        cfg["loop"] = {"kind": "circle", "center": list(args.circle[:2]),
                       "radius": args.circle[2]}
        flags["loop"] = "--circle"
    elif getattr(args, "rect", None) is not None:
        cfg["loop"] = {"kind": "rect", "window": list(args.rect)}
        flags["loop"] = "--rect"
    if getattr(args, "point", None):
        cfg["points"] = [list(p) for p in args.point]
    if getattr(args, "meta", None):
        meta = cfg.setdefault("metadata", {})
        for item in args.meta:
            key, _, value = item.partition("=")
            meta[key] = value
    cfg["out"] = args.out
    cfg["command"] = args.command
    if args.command in _MODE_DEFAULTS:
        _apply_modes(cfg, flags)
    return cfg


def _apply_modes(cfg, flags) -> None:
    """Fill in the defaults of the run's modes; reject other modes' keys."""
    command, table = cfg["command"], _MODE_DEFAULTS[cfg["command"]]
    if command == "find-eps":
        modes = ["--window" if cfg["window"] else "without --window"]
    else:
        modes = [f"--kind {cfg['kind']}", f"--mode {cfg['mode']}"]
    for mode in modes:
        if mode not in table:
            raise ValueError(f"{command}: unknown choice {mode}")
    own = {key for mode in modes for key in table[mode]}
    stray = [key for mode, defaults in table.items() if mode not in modes
             for key in defaults if key in cfg and key not in own]
    if stray:
        named = ", ".join(flags.get(key, f"config key {key!r}") for key in stray)
        raise ValueError(f"{command} {' '.join(modes)} does not read {named}")
    for mode in modes:
        for key, value in table[mode].items():
            cfg.setdefault(key, json.loads(json.dumps(value)))


def _params(cfg) -> ToyParams:
    return ToyParams(**cfg["params"])


def _parse_grid(text) -> tuple[int, int]:
    try:
        n1, n2 = text.lower().split("x")
        return int(n1), int(n2)
    except ValueError:
        raise ValueError(f"grid must look like 256x64, got {text!r}") from None


def _loop_from(cfg_loop):
    if cfg_loop["kind"] == "circle":
        return CircleLoop(tuple(cfg_loop["center"]), cfg_loop["radius"])
    if cfg_loop["kind"] == "rect":
        a0, a1, b0, b1 = cfg_loop["window"]
        return PolylineLoop(((a0, b0), (a1, b0), (a1, b1), (a0, b1)))
    if cfg_loop["kind"] == "polyline":
        return PolylineLoop(tuple(tuple(v) for v in cfg_loop["vertices"]))
    raise ValueError(f"unknown loop kind {cfg_loop['kind']!r}")


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_toy_sweep(cfg) -> None:
    p = _params(cfg)
    lo, hi = cfg["alpha_range"]
    alphas = np.linspace(lo, hi, int(cfg["points"]))
    traj = sweep_toy(p, alphas)
    report = classify(traj)
    out = _outdir(cfg)
    io_mod.write_trajectory_csv(out / "toy_sweep.csv", traj)
    io_mod.write_json(out / "toy_sweep_report.json", {
        "report": asdict(report),
        "overlap_peaks": overlap_peaks(traj),
        "config": cfg,
    })


def _cmd_find_eps(cfg) -> None:
    p = _params(cfg)
    if cfg.get("window"):
        a0, a1, b0, b1 = cfg["window"]
        coarse_n, n2 = _parse_grid(cfg["grid"])
        if n2 != coarse_n:
            raise ValueError(
                f"find-eps needs a square grid, got {coarse_n}x{n2}")
        result = grid_ep_search(eigenpair_sampler(p), ((a0, a1), (b0, b1)),
                                coarse_n)
        payload = {
            "eps": [asdict(e) for e in result.locations],
            "method": "grid-search",
            "sampler_failures": result.sampler_failures,
            "config": cfg,
        }
    else:
        roots = toy_ep_roots(p, tuple(cfg["alpha_bracket"]),
                             residual_tol=cfg["tolerance"])
        payload = {"eps": [asdict(e) for e in roots], "method": "scan-roots",
                   "config": cfg}
    io_mod.write_json(_outdir(cfg) / "find_eps.json", payload)


def _surface_manifest(grid, cfg) -> dict:
    """Everything but the sheets, which the CSV beside it holds."""
    return {
        "axis1": grid.axis1,
        "axis2": grid.axis2,
        "delta_mode": grid.delta_mode,
        "cut_edges": {
            "matched": [[list(u), list(v)] for u, v in grid.cut_cells.matched],
            "re": [[list(u), list(v)] for u, v in grid.cut_cells.re],
            "im": [[list(u), list(v)] for u, v in grid.cut_cells.im],
        },
        "missing": [list(n) for n in grid.missing],
        "config": cfg,
    }


def _cmd_surface(cfg) -> None:
    p = _params(cfg)
    n1, n2 = _parse_grid(cfg["grid"])
    a0, a1, b0, b1 = cfg["window"]
    grid = build_surface(eigenpair_sampler(p), ((a0, a1), (b0, b1)), n1, n2,
                         cfg["delta_mode"])
    out = _outdir(cfg)
    io_mod.write_sheetgrid_csv(out / "surface.csv", grid)
    io_mod.write_json(out / "surface.json", _surface_manifest(grid, cfg))


def _cmd_encircle(cfg) -> None:
    p = _params(cfg)
    loop = _loop_from(cfg["loop"])
    known = []
    if p.gamma1 == p.gamma2 and p.beta == 1.0:
        known = toy_ep_roots(p, (0.01, 4.0))
    result = encircle(eigenpair_sampler(p), loop, int(cfg["steps"]),
                      known_eps=known)
    io_mod.write_json(_outdir(cfg) / "encircle.json",
                      {**asdict(result), "config": cfg})


def _cmd_beta_scan(cfg) -> None:
    p = _params(cfg)
    lo, hi = cfg["alpha_range"]
    beta_c = beta_transition(
        p, tuple(cfg["beta_window"]),
        alpha_range=(lo, hi), n_alpha=int(cfg["points"]),
        tol=cfg["tolerance"],
    )
    io_mod.write_json(_outdir(cfg) / "beta_scan.json", {
        "beta_c": beta_c,
        "config": cfg,
    })


def _config_points(points) -> tuple[np.ndarray, np.ndarray]:
    """The n and chi arrays of the config's ``points``, [n, chi] pairs."""
    if not isinstance(points, list):
        raise ValueError(
            f"points must be a list of [n, chi] pairs, got {points!r}")
    for k, point in enumerate(points):
        if not (isinstance(point, list) and len(point) == 2 and all(
                isinstance(c, (int, float)) and not isinstance(c, bool)
                for c in point)):
            raise ValueError(
                f"points[{k}] must be a pair of numbers [n, chi], got {point!r}")
    return np.array(points, dtype=float).reshape(-1, 2).T


def _cmd_project(cfg) -> None:
    if cfg.get("input"):
        n, chi = io_mod.read_plane_csv(cfg["input"])
    else:
        n, chi = _config_points(cfg["points"])
    lifted = lift_cut(n, chi)
    out = _outdir(cfg)
    io_mod.write_sphere_csv(out / "sphere.csv", lifted)
    io_mod.write_json(out / "project.json", {
        "n_points": len(lifted),
        "config": cfg,
    })


def _cmd_ingest_classify(cfg) -> None:
    dataset = io_mod.ingest_csv(cfg["input"], metadata=cfg.get("metadata"))
    modes = cfg.get("modes") or [None, None]
    traj = dataset.to_trajectory(modes[0], modes[1])
    report = classify(traj)
    io_mod.write_json(_outdir(cfg) / "ingest_classify.json", {
        "report": asdict(report),
        "scan_name": dataset.scan_name,
        "metadata": dataset.metadata,
        "config": cfg,
    })


def _oracle_from(cfg) -> AnalyticOracle:
    if cfg["kind"] == "two-point":
        return AnalyticOracle.two_point(complex(*cfg["z1"]), complex(*cfg["z2"]))
    return AnalyticOracle.single_point(complex(*cfg["z0"]), int(cfg["order"]))


def _cmd_oracle(cfg) -> None:
    oracle = _oracle_from(cfg)
    out = _outdir(cfg)
    if cfg["mode"] == "surface":
        n1, n2 = _parse_grid(cfg["grid"])
        a0, a1, b0, b1 = cfg["window"]
        grid = build_surface(oracle.sampler(), ((a0, a1), (b0, b1)), n1, n2,
                             cfg["delta_mode"])
        io_mod.write_sheetgrid_csv(out / "oracle_surface.csv", grid)
        io_mod.write_json(out / "oracle_surface.json",
                          _surface_manifest(grid, cfg))
    else:
        payload = asdict(encircle(oracle.sampler(), _loop_from(cfg["loop"]),
                                  int(cfg["steps"])))
        del payload["enclosed_eps"]  # the oracle has no known EPs
        io_mod.write_json(out / "oracle_encircle.json", {**payload, "config": cfg})


_RUNNERS = {
    "toy-sweep": _cmd_toy_sweep,
    "find-eps": _cmd_find_eps,
    "surface": _cmd_surface,
    "encircle": _cmd_encircle,
    "beta-scan": _cmd_beta_scan,
    "project": _cmd_project,
    "ingest-classify": _cmd_ingest_classify,
    "oracle": _cmd_oracle,
}


# parsing keeps no state in the parser, so one serves every call of a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _RUNNERS[args.command](cfg)
    except Exception as exc:
        message = "; ".join([str(exc), *getattr(exc, "__notes__", ())])
        print(json.dumps({
            "error": {"command": args.command, "type": type(exc).__name__,
                      "message": message},
        }, sort_keys=True))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
