"""Benchmark of the epkit CLI.

Run from the root of the repository:

    python3 perfbench/run.py --workload atlas --seed 1 --seconds 30 --trace 0

The workloads and the metrics, with their units and bounds, are declared in
BENCHMARK.json at the root. ``wall_per_probe`` is the median, over the timed
iterations, of the time an iteration spends in CLI calls in units of a fixed
probe computation run between the calls, which cancels the shared host's
changing speed (see ``workloads.probe`` and ``workloads.run_iteration``); the
seconds and the items per second are printed beside it. With ``--trace 0``
the run prints the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the sample counts and every metric by name and unit. Full
results and the spans of the last traced iteration are written under
``.bench_out/<workload>/``.

This process measures set-up in fresh interpreters, before and after it runs
the workload in a child process (workloads.py) whose OpenMP/OpenBLAS/MKL
pools are pinned to one thread, so the child's peak RSS is the workload's own.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3       # fresh-interpreter imports before and again after the workload
IMPORTTIME_RUNS = 3
DEADLINE_S = 170     # the whole run ends within this many seconds
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_CODE = ("import time; t = time.perf_counter(); import epkit.cli; "
               "print(time.perf_counter() - t)")


def workload_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_POOLS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _python(env, *args, timeout=60) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=timeout)


def setup_seconds(env) -> list[float]:
    """Times to import epkit.cli in ``SETUP_RUNS`` fresh interpreters."""
    return [float(_python(env, "-c", IMPORT_CODE).stdout) for _ in range(SETUP_RUNS)]


def scipy_optimize_import_seconds(env) -> float:
    """Median scipy.optimize share of the import, from ``-X importtime``.

    scipy loads the package lazily, so its own line is missing; the share is
    the sum of the outermost ``scipy.optimize.*`` lines. 0 when not imported.
    """
    shares = []
    for _ in range(IMPORTTIME_RUNS):
        lines = []
        for line in _python(env, "-X", "importtime", "-c", "import epkit.cli").stderr.splitlines():
            parts = line.split("|")
            name = parts[-1].rstrip()
            if len(parts) == 3 and name.strip().startswith("scipy.optimize"):
                lines.append((len(name) - len(name.lstrip()), int(parts[1])))
        top = min((depth for depth, _ in lines), default=0)
        shares.append(sum(us for depth, us in lines if depth == top) / 1e6)
    return statistics.median(shares)


def main(argv=None) -> int:
    started = time.monotonic()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epkit" / "cli.py").is_file():
        print(f"no epkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = workload_env()
    values = {}
    if args.trace:
        values["epfind.import_s"] = scipy_optimize_import_seconds(env)
    else:
        _python(env, "-c", IMPORT_CODE)  # compiles bytecode, warms the page cache
        setup = setup_seconds(env)

    child = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--small"] if args.small else [])
    proc = subprocess.run(child, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=DEADLINE_S - (time.monotonic() - started))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]), end="\n" if len(lines) > 1 else "")
    report = json.loads(lines[-1])
    values.update(report["values"])
    if not args.trace:
        # The host's speed changes over tens of seconds; imports on both sides
        # of the workload sample more of it than imports in a row.
        setup += setup_seconds(env)
        values["setup_s"] = statistics.median(setup)

    spec = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    report["values"] = values
    (ROOT / ".bench_out" / args.workload / "result.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"environment {json.dumps(report['environment'], sort_keys=True)}")
    wall = statistics.median(report["walls"])
    print(f"# {len(report['walls'])} timed iterations of {report['items']} items: "
          f"{', '.join(f'{w:.4f}' for w in report['walls'])} s; median {wall:.4f} s, "
          f"{report['items'] / wall:.6g} items/s")
    print(f"# in probe units: {', '.join(f'{r:.2f}' for r in report['in_probes'])}")
    print(f"# error_rate {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} operations failed)")
    for name, metric in metrics.items():
        print(f"# {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": report["failed"] == 0,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
