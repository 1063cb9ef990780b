"""Self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

1. Runs every workload once at reduced size with tracing off, and twice with
   tracing on. Every metric BENCHMARK.json names must be printed with its
   unit, no operation may fail, and the traced counts must repeat exactly.
2. Corrupts artifacts (a flipped loop permutation, a wrong beta_c, a lost
   cut, a wrong sheet value, a non-zero exit code) and asserts that the
   checks count each as one failed operation.
3. Asserts that tracing skips a target that does not exist and that the
   wrappers keep the wrapped function's attributes.
4. Asserts that run.py fails, printing no result, in a directory holding only
   BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
SEED = 3
COUNT_UNITS = ("count", "B")


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_metrics_printed(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        counts = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            expect(proc.returncode == 0, f"{workload} trace {trace}: {proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: {result['failed']} of "
                   f"{result['attempted']} operations failed: {proc.stderr}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: metrics {got}, expected {want}")
            for name, unit in want.items():
                expect(any(line.startswith(f"# {name} ") and line.endswith(f" {unit}")
                           for line in lines), f"{name} not printed with its unit {unit}")
            if trace:
                counts.append({name: m["value"] for name, m in result["metrics"].items()
                               if m["unit"] in COUNT_UNITS})
        expect(counts[0] == counts[1], f"{workload}: traced counts differ: {counts}")
        print(f"PASS {workload}: every metric printed with its unit; counts repeat")


def _settled_after(op, code: int = 0):
    import workloads
    ledger = workloads.Ledger()
    ledger.settle(op, code)
    return ledger


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _flip_sheet_value(path: Path) -> None:
    """Shift re1 of every row, so whichever rows are checked are wrong."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("re1")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[col] = repr(float(cells[col]) + 1e-6)
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


def test_corruption_fails() -> None:
    import workloads
    cases = [
        ("monodromy", 0, "encircle.json",
         lambda p: _edit_json(p, lambda d: d.update(permutation="identity"))),
        ("monodromy", 1, "oracle_encircle.json",
         lambda p: _edit_json(p, lambda d: d.update(permutation="identity"))),
        ("scan", 7, "beta_scan.json", lambda p: _edit_json(p, lambda d: d.update(beta_c=0.5))),
        ("scan", 9, "ingest_classify.json",
         lambda p: _edit_json(p, lambda d: d["report"].update(label="LZ"))),
        ("atlas", 0, "surface.json",
         lambda p: _edit_json(p, lambda d: d["cut_edges"].update(re=[]))),
        ("atlas", 1, "oracle_surface.csv", _flip_sheet_value),
    ]
    built = {}
    for name in {case[0] for case in cases}:
        workload = workloads.WORKLOADS[name](SEED, workloads.SMALL, SCRATCH / name)
        ledger = workloads.Ledger()
        workloads.run_iteration(workload.ops, ledger)
        expect(ledger.failed == 0, f"{name}: clean artifacts failed: {ledger.errors}")
        built[name] = workload
    for name, index, artifact, corrupt in cases:
        op = built[name].ops[index]
        corrupt(op.out / artifact)
        ledger = _settled_after(op)
        expect((ledger.attempted, ledger.failed) == (1, 1),
               f"corrupted {name} {artifact} was not counted as failed")
    ledger = _settled_after(built["scan"].ops[0], code=1)
    expect(ledger.failed == 1, "a non-zero exit code was not counted as failed")
    print("PASS corrupted artifacts and failed calls count as failed operations")


def test_tracing_wrappers() -> None:
    import epkit.core
    import tracing
    original = epkit.core.eigvalues_grid
    tracer = tracing.Tracer()
    missing = ("core.gone", "epkit.core", "no_such_function", None, None, False)
    installed = tracing.install(tracer, tracing.TARGETS + (missing,))
    expect("core.gone" not in installed and "core.eigvalues_grid" in installed,
           f"installed {installed}")
    wrapped = epkit.core.eigvalues_grid
    expect(wrapped is not original and wrapped.__wrapped__ is original
           and wrapped.__name__ == original.__name__
           and wrapped.__doc__ == original.__doc__, "wrapper lost attributes")
    expect(wrapped(1.0, 2.0, 0.5) == original(1.0, 2.0, 0.5), "wrapper changed the result")
    expect(tracing.layer_metrics(tracer.take())["core.eigvalues_grid_calls"] == 1,
           "call not recorded")
    print("PASS tracing skips missing targets and keeps attributes")


def test_fails_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("scan", 0, cwd=bare)
    expect(proc.returncode != 0, "run.py succeeded without the epkit sources")
    expect(not proc.stdout.strip(), f"run.py printed {proc.stdout!r}")
    print("PASS run.py fails without the epkit sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    test_fails_without_sources()
    test_metrics_printed(bench)
    test_corruption_fails()
    test_tracing_wrappers()  # last: it leaves epkit wrapped in this process
    return 0


if __name__ == "__main__":
    sys.exit(main())
