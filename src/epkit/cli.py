"""Command-line interface.

Configuration is resolved in layers: command defaults, then a JSON config
file (--config) over the preset it names, then a named preset (--preset),
then explicit flags; later layers win. ``_CHECKS`` is the one config
contract: a run accepts only the keys its command and modes read, and
checks each of them before any work is done. Every JSON artifact embeds
the fully resolved config, and all outputs are deterministic for a fixed
config (repeat runs produce byte-identical files).

Subcommands: toy-sweep, find-eps, surface, encircle, beta-scan, project,
ingest-classify, oracle. A flag that argparse cannot parse exits 2 with
its usage on stderr; a failure after parsing prints a machine-readable
JSON description to stdout and exits 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import io as io_mod
from .core import eigvectors_grid, is_real_number
from .crossing import (MIN_SCAN_POINTS, beta_transition, classify,
                       overlap_peaks, sweep_toy)
from .epfind import MIN_SEARCH_GRID, equal_width_eps, grid_ep_search
from .sphere import lift_cut
from .surface import (MIN_GRID, MIN_LOOP_STEPS, AnalyticOracle, CircleLoop,
                      PolylineLoop, build_surface, encircle)
from .toymodel import PRESETS, ToyParams, eigenpair_sampler, scan_entries

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
    "find-eps": {"--window": {"grid": "48x48"}, "without --window": {}},
    "oracle": {
        "--kind two-point": {"z1": list(CAVITY_EP1), "z2": list(CAVITY_EP2)},
        "--kind single-point": {"z0": [0.0, 0.0]},
        "--mode surface": {"window": [2.5, 3.0, 0.45, 0.7], "grid": "256x64",
                           "delta_mode": "delta"},
        "--mode encircle": {
            "loop": {"kind": "circle", "center": list(CAVITY_EP1),
                     "radius": 0.05},
            "steps": 256,
        },
    },
}


_WINDOW = ("P1LO", "P1HI", "P2LO", "P2HI")


# argparse reads an argument as a flag unless it looks like a negative
# number; -1e5, -inf and -infinity are numbers too
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf(inity)?$",
                              re.IGNORECASE)


def _add_command(subs, name, help, grid=False, params=False):
    sub = subs.add_parser(name, help=help)
    sub._negative_number_matcher = _NEGATIVE_NUMBER
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--out", default=".", help="output directory")
    if grid:
        sub.add_argument("--grid", metavar="N1xN2", help="grid resolution, e.g. 256x64")
    if params:
        sub.add_argument("--preset", choices=sorted(PRESETS),
                         help="named toy-model parameter set")
        for flag in ("--g-c", "--beta", "--gamma1", "--gamma2"):
            sub.add_argument(flag, type=float)
        sub.add_argument("--lambda-mode", choices=["full-complex-difference",
                                                   "real-part-difference"])
    return sub


def _add_sheets(sub):
    sub.add_argument("--window", type=float, nargs=4, metavar=_WINDOW)
    sub.add_argument("--delta-mode", choices=["raw", "delta"])


def _add_loop(sub):
    shape = sub.add_mutually_exclusive_group()
    shape.add_argument("--circle", type=float, nargs=3, metavar=("CX", "CY", "R"))
    shape.add_argument("--rect", type=float, nargs=4, metavar=_WINDOW)
    sub.add_argument("--steps", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epkit",
        description="Exceptional-point analysis of 2x2 non-Hermitian Hamiltonians",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = _add_command(subs, "toy-sweep", "1-D scan: trajectory CSV + class report",
                         params=True)
    sweep.add_argument("--alpha-range", type=float, nargs=2)
    sweep.add_argument("--points", type=int)

    find = _add_command(subs, "find-eps", "EPs of the toy model: the closed "
                        "form for equal widths, or a 2-D grid search",
                        grid=True, params=True)
    find.add_argument("--window", type=float, nargs=4, metavar=_WINDOW,
                      help="run the generic 2-D grid search over (alpha, "
                           "beta); without it, equal widths are required")

    _add_sheets(_add_command(subs, "surface", "sheet grid with branch cuts",
                             grid=True, params=True))
    _add_loop(_add_command(subs, "encircle", "loop monodromy of the toy model",
                           params=True))

    bscan = _add_command(subs, "beta-scan", "LZ-to-WB transition coefficient",
                         params=True)
    bscan.add_argument("--tolerance", type=float, help="beta_c bisection step")
    bscan.add_argument("--beta-window", type=float, nargs=2)
    bscan.add_argument("--alpha-range", type=float, nargs=2)
    bscan.add_argument("--points", type=int)

    proj = _add_command(subs, "project", "lift plane points/curves to the sphere")
    proj.add_argument("--input", help="CSV with header n,chi (inf rows allowed)")
    proj.add_argument("--point", type=float, nargs=2, action="append",
                      metavar=("N", "CHI"))

    ing = _add_command(subs, "ingest-classify", "classify an external dataset")
    ing.add_argument("--input", required=True)
    ing.add_argument("--modes", nargs=2)
    ing.add_argument("--meta", action="append", metavar="KEY=VALUE")

    orc = _add_command(subs, "oracle", "analytic-oracle surface or loop", grid=True)
    orc.add_argument("--kind", choices=["two-point", "single-point"])
    for flag in ("--z1", "--z2", "--z0"):
        orc.add_argument(flag, type=float, nargs=2, metavar=("RE", "IM"))
    orc.add_argument("--mode", choices=["surface", "encircle"])
    _add_sheets(orc)
    _add_loop(orc)
    return parser


def _checker(ok, what):
    """A checker that raises ``<key> must be <what>, got <value>`` unless
    ``ok(value)``."""
    def check(key, value):
        if not ok(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")
    return check


def _numbers(n):
    return lambda v: (isinstance(v, list) and len(v) == n
                      and all(map(is_real_number, v)))


def _coordinates(point):
    """A config point, null read as inf: artifacts write inf as null."""
    return [math.inf if c is None else c for c in point]


def _choice(*names):
    return _checker(names.__contains__, "one of " + ", ".join(names))


def _then(check, ok, what):
    """``check``, then ``_checker(ok, what)`` on the value it passed."""
    def both(key, value):
        check(key, value)
        _checker(ok, what)(key, value)
    return both


_int = _checker(lambda v: isinstance(v, int) and not isinstance(v, bool),
                "an integer")
_count = _checker(lambda v: isinstance(v, int) and not isinstance(v, bool)
                  and v >= MIN_SCAN_POINTS, f"an integer >= {MIN_SCAN_POINTS}")
_real = _checker(is_real_number, "a real number")
_pair = _checker(_numbers(2), "a pair of numbers")
_range = _then(_pair, lambda v: -math.inf < v[0] < v[1] < math.inf,
               "finite with lo < hi")


def _then_flagged(check, ok, what):
    """``check``, then a check of ``ok`` whose message names the key's flag
    as well as the key."""
    def both(key, value):
        check(key, value)
        if not ok(value):
            raise ValueError(f"{key} (--{key.replace('_', '-')}) must {what}, "
                             f"got {value!r}")
    return both


# alpha as the toy model takes it, and beta as beta_transition bisects it
_alpha_range = _then_flagged(_range, lambda v: v[0] >= 0, "have lo >= 0")
_beta_window = _then_flagged(_pair, lambda v: 0 <= v[0] < v[1] <= 1,
                             "satisfy 0 <= lo < hi <= 1")
_tolerance = _then_flagged(_real, lambda v: 0 < v < math.inf,
                           "be positive and finite")


_steps = _then(_int, lambda v: v >= MIN_LOOP_STEPS,
               f"at least {MIN_LOOP_STEPS}")
_point = _checker(lambda v: isinstance(v, list) and _numbers(2)(_coordinates(v)),
                  "a pair of numbers [n, chi]")
_window = _checker(_numbers(4), "four numbers [p1lo, p1hi, p2lo, p2hi]")
_text = _checker(lambda v: isinstance(v, str), "a string")
_object = _checker(lambda v: isinstance(v, dict), "an object")
# ToyParams checks the values in params, as the loop classes do in a loop
_params = _checker(lambda v: isinstance(v, dict) and v.keys() <= set(_PARAM_KEYS),
                   "an object with keys among " + ", ".join(_PARAM_KEYS))
_mode_pair = _checker(lambda v: isinstance(v, list) and len(v) == 2
                      and all(isinstance(m, str) for m in v), "two mode names")


def _points(key, value) -> None:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of [n, chi] pairs, got {value!r}")
    for k, point in enumerate(value):
        _point(f"{key}[{k}]", point)


def _grid(key, value) -> tuple[int, int]:
    """The sizes of an ``N1xN2`` grid string."""
    try:
        n1, n2 = value.lower().split("x")
        return int(n1), int(n2)
    except (AttributeError, ValueError):
        raise ValueError(f"{key} must look like 256x64, got {value!r}") from None


def _grid_floor(n):
    """``_grid``, then a check that both sizes are at least ``n``."""
    return _then(_grid, lambda v: min(_grid("grid", v)) >= n, f"at least {n}x{n}")


_LOOP_KEYS = {"circle": ("center", "radius"), "rect": ("window",),
              "polyline": ("vertices",)}


def _loop(key, value) -> None:
    """An object with a kind and exactly that kind's keys."""
    if not isinstance(value, dict) or "kind" not in value:
        raise ValueError(f"{key} must be an object with a kind, got {value!r}")
    kind = value["kind"]
    if not (isinstance(kind, str) and kind in _LOOP_KEYS):
        raise ValueError(f"unknown {key} kind {kind!r}")
    for name in _LOOP_KEYS[kind]:
        if name not in value:
            raise ValueError(f"a {kind} {key} needs {name!r}")
    extra = sorted(set(value) - {"kind", *_LOOP_KEYS[kind]})
    if extra:
        raise ValueError(
            f"a {kind} {key} does not read {', '.join(map(repr, extra))}")
    if kind == "rect":
        _window("window", value["window"])


def _loop_of(value):
    """The loop a checked config ``loop`` object describes."""
    if value["kind"] == "circle":
        return CircleLoop(value["center"], value["radius"])
    if value["kind"] == "rect":
        a0, a1, b0, b1 = value["window"]
        return PolylineLoop(((a0, b0), (a1, b0), (a1, b1), (a0, b1)))
    return PolylineLoop(value["vertices"])


# The config contract: every key a command or mode may read, and its
# checker, which raises naming the key and never changes the value. The
# order is the order in which flags are copied into the config.
_CHECKS = {
    "command": _text,
    "out": _text,
    "params": _params,
    "preset": _choice(*sorted(PRESETS)),
    "input": _text,
    "alpha_range": _alpha_range,
    "points": {"toy-sweep": _count, "beta-scan": _count, "project": _points},
    "beta_window": _beta_window,
    "tolerance": _tolerance,
    "kind": _choice("two-point", "single-point"),
    "mode": _choice("surface", "encircle"),
    "z1": _pair,
    "z2": _pair,
    "z0": _pair,
    "window": _window,
    "grid": {"find-eps": _grid_floor(MIN_SEARCH_GRID),
             "surface": _grid_floor(MIN_GRID), "oracle": _grid_floor(MIN_GRID)},
    "delta_mode": _choice("raw", "delta"),
    "loop": _loop,
    "steps": _steps,
    "modes": _mode_pair,
    "metadata": _object,
}


def _resolve(args) -> dict:
    """The run's config: the layers merged, then checked by ``_check``."""
    cfg = json.loads(json.dumps(_DEFAULTS[args.command]))  # deep copy
    loaded = {}
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"--config must hold a JSON object, got {loaded!r}")
    if "params" in cfg:  # the commands with --preset
        if "preset" in loaded:  # the base of the file's own params
            _CHECKS["preset"]("preset", loaded["preset"])
            cfg["params"].update(PRESETS[loaded["preset"]]["params"])
        if isinstance(loaded.get("params"), dict):
            # a partial params dict overrides single defaults
            loaded["params"] = {**cfg["params"], **loaded["params"]}
    cfg.update(loaded)
    if "params" in _DEFAULTS[args.command] and isinstance(cfg["params"], dict):
        if args.preset:
            cfg["params"].update(PRESETS[args.preset]["params"])
        for key in _PARAM_KEYS:
            if getattr(args, key) is not None:
                cfg["params"][key] = getattr(args, key)
    flags = {}  # config key -> the flag that set it
    if getattr(args, "circle", None) is not None:
        cfg["loop"] = {"kind": "circle", "center": list(args.circle[:2]),
                       "radius": args.circle[2]}
        flags["loop"] = "--circle"
    elif getattr(args, "rect", None) is not None:
        cfg["loop"] = {"kind": "rect", "window": list(args.rect)}
        flags["loop"] = "--rect"
    if getattr(args, "point", None):
        cfg["points"] = [list(p) for p in args.point]
        flags["points"] = "--point"
    if getattr(args, "meta", None) and isinstance(cfg["metadata"], dict):
        for item in args.meta:
            key, sep, value = item.partition("=")
            if not (sep and key):
                raise ValueError(f"--meta must look like KEY=VALUE, got {item!r}")
            cfg["metadata"][key] = value
    given = vars(args)
    for key in _CHECKS:
        if given.get(key) is not None:
            cfg[key] = given[key]
            flags[key] = "--" + key.replace("_", "-")
    _check(cfg, given, flags)
    return cfg


def _check(cfg, given, flags) -> None:
    """Reject the keys that the command, its modes and its flags (``given``)
    do not read, check the others, then fill in the modes' defaults."""
    command, table = cfg["command"], _MODE_DEFAULTS.get(cfg["command"], {})
    if command == "find-eps":
        modes = ["--window" if cfg["window"] is not None else "without --window"]
    elif command == "oracle":
        modes = [f"--kind {cfg['kind']}", f"--mode {cfg['mode']}"]
    else:
        modes = []
    for mode in modes:
        if mode not in table:
            raise ValueError(f"{command}: unknown choice {mode}")
    own = {key for mode in modes for key in table[mode]}
    others = {key for defaults in table.values() for key in defaults} - own
    defaults = _DEFAULTS[command]
    reads = {*defaults, *own, *(_CHECKS.keys() & given.keys())}
    stray = [key for key in cfg if key not in reads or key in others]
    if stray:
        named = ", ".join(flags.get(key, f"config key {key!r}") for key in stray)
        raise ValueError(f"{' '.join([command, *modes])} does not read {named}")
    for key, value in cfg.items():
        if value is None and key in defaults and defaults[key] is None:
            continue  # null where the default is null
        check = _CHECKS[key]
        (check[command] if isinstance(check, dict) else check)(key, value)
    if command == "project" and "input" in cfg and cfg["points"]:
        named = [flags.get(key, f"config key {key!r}")
                 for key in ("input", "points")]
        raise ValueError(f"project reads {' or '.join(named)}, not both")
    for mode in modes:
        for key, value in table[mode].items():
            if key not in cfg:
                cfg[key] = json.loads(json.dumps(value))  # deep copy


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


# Each runner writes its CSVs and returns the name and payload of its JSON
# artifact, to which main adds the config.

def _cmd_toy_sweep(cfg):
    p = ToyParams(**cfg["params"])
    alphas = np.linspace(*cfg["alpha_range"], cfg["points"])
    traj = sweep_toy(p, alphas)
    report = classify(traj)
    io_mod.write_trajectory_csv(_outdir(cfg) / "toy_sweep.csv", traj)
    with np.errstate(all="ignore"):
        vectors = eigvectors_grid(*scan_entries(alphas, p))
    peaks = overlap_peaks(alphas, *vectors)
    return "toy_sweep_report.json", {"report": asdict(report),
                                     "overlap_peaks": peaks}


def _cmd_find_eps(cfg):
    p = ToyParams(**cfg["params"])
    if cfg["window"] is None:
        if p.gamma1 != p.gamma2:
            raise ValueError(
                "find-eps without --window needs gamma1 == gamma2, got "
                f"{p.gamma1} and {p.gamma2}; pass --window for the grid search")
        return "find_eps.json", {"eps": [asdict(e) for e in equal_width_eps(p)],
                                 "method": "closed-form"}
    a0, a1, b0, b1 = cfg["window"]
    coarse_n, n2 = _grid("grid", cfg["grid"])
    if n2 != coarse_n:
        raise ValueError(f"find-eps needs a square grid, got {coarse_n}x{n2}")
    result = grid_ep_search(eigenpair_sampler(p), ((a0, a1), (b0, b1)),
                            coarse_n)
    return "find_eps.json", {"eps": [asdict(e) for e in result.locations],
                             "method": "grid-search",
                             "sampler_failures": result.sampler_failures}


def _sheets(cfg, sampler, name):
    """Build the sheet grid, write its sheets to ``<name>.csv`` and return
    the manifest ``<name>.json`` of the rest."""
    n1, n2 = _grid("grid", cfg["grid"])
    a0, a1, b0, b1 = cfg["window"]
    grid = build_surface(sampler, ((a0, a1), (b0, b1)), n1, n2,
                         cfg["delta_mode"])
    io_mod.write_sheetgrid_csv(_outdir(cfg) / f"{name}.csv", grid)
    return f"{name}.json", {
        "axis1": grid.axis1,
        "axis2": grid.axis2,
        "delta_mode": grid.delta_mode,
        "cut_edges": {kind: np.array(getattr(grid.cut_cells, kind),
                                     dtype=np.int64).reshape(-1, 2, 2)
                      for kind in ("matched", "re", "im")},
        "missing": [list(n) for n in grid.missing],
    }


def _cmd_surface(cfg):
    return _sheets(cfg, eigenpair_sampler(ToyParams(**cfg["params"])),
                   "surface")


def _cmd_encircle(cfg):
    p, loop = ToyParams(**cfg["params"]), _loop_of(cfg["loop"])
    known = equal_width_eps(p) if p.gamma1 == p.gamma2 else []
    return "encircle.json", {
        **asdict(encircle(eigenpair_sampler(p), loop, cfg["steps"])),
        "enclosed_eps": [asdict(ep) for ep in known
                         if loop.contains((ep.p1, ep.p2))]}


def _cmd_beta_scan(cfg):
    return "beta_scan.json", {"beta_c": beta_transition(
        ToyParams(**cfg["params"]), tuple(cfg["beta_window"]),
        alpha_range=tuple(cfg["alpha_range"]), n_alpha=cfg["points"],
        tol=cfg["tolerance"])}


def _cmd_project(cfg):
    if cfg.get("input"):
        n, chi = io_mod.read_plane_csv(cfg["input"])
    else:
        n, chi = np.array([_coordinates(point) for point in cfg["points"]],
                          dtype=float).reshape(-1, 2).T
    lifted = lift_cut(n, chi)
    io_mod.write_sphere_csv(_outdir(cfg) / "sphere.csv", lifted)
    return "project.json", {"n_points": len(lifted)}


def _cmd_ingest_classify(cfg):
    dataset = io_mod.ingest_csv(cfg["input"])
    report = classify(dataset.to_trajectory(*(cfg["modes"] or [None, None])))
    return "ingest_classify.json", {"report": asdict(report),
                                    "scan_name": dataset.scan_name}


def _cmd_oracle(cfg):
    if cfg["kind"] == "two-point":
        oracle = AnalyticOracle.two_point(complex(*cfg["z1"]),
                                          complex(*cfg["z2"]))
    else:
        oracle = AnalyticOracle.single_point(complex(*cfg["z0"]))
    if cfg["mode"] == "surface":
        return _sheets(cfg, oracle.sampler(), "oracle_surface")
    return "oracle_encircle.json", asdict(
        encircle(oracle.sampler(), _loop_of(cfg["loop"]), cfg["steps"]))


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
        name, payload = _RUNNERS[args.command](cfg)
        io_mod.write_json(_outdir(cfg) / name, {**payload, "config": cfg})
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
