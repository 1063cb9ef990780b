"""The import boundary: no command loads scipy.

Each check runs in a fresh interpreter, since this process may have loaded
scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epkit

SRC = str(Path(epkit.__file__).resolve().parent.parent)

# runs one CLI call and reports its exit code and whether it loaded scipy
RUN_CLI = ("import json, sys\n"
           "from epkit.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print(json.dumps([code, any(m.split('.')[0] == 'scipy'\n"
           "                            for m in sys.modules)]))")

# runs the CLI calls of a JSON list with every scipy import failing, each
# into its own output directory
RUN_WITHOUT_SCIPY = ("import json, sys\n"
                     "sys.modules['scipy'] = None\n"
                     "from epkit.cli import main\n"
                     "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
                     "    assert main([*argv, '--out', f'out{k}']) == 0\n")

EP_COMMANDS = [
    ("find-eps",),
    ("find-eps", "--window", "0.3", "0.8", "0.9", "1.1"),
    ("encircle",),
]


def python(cwd, code, *argv) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(tmp_path):
    out = python(tmp_path, "import sys, epkit, epkit.cli; "
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out == "[]\n"


def assert_paper_eps(out, command):
    (artifact,) = out.glob("*.json")
    payload = json.loads(artifact.read_text())
    eps = payload["eps" if command == "find-eps" else "enclosed_eps"]
    assert len(eps) == 2
    for ep, alpha in zip(eps, (0.454, 0.621)):
        assert abs(ep["p1"] - alpha) < 1e-3
        assert abs(ep["p2"] - 1.0) < 1e-4


@pytest.mark.parametrize("argv", EP_COMMANDS,
                         ids=["closed-form", "grid-search", "encircle"])
def test_ep_commands_load_no_scipy_and_find_the_paper_eps(tmp_path, argv):
    code, loaded = json.loads(python(tmp_path, RUN_CLI, *argv, "--out", "out"))
    assert code == 0 and not loaded
    assert_paper_eps(tmp_path / "out", argv[0])


def test_ep_commands_run_with_scipy_unimportable(tmp_path):
    python(tmp_path, RUN_WITHOUT_SCIPY, json.dumps(EP_COMMANDS))
    for k, argv in enumerate(EP_COMMANDS):
        assert_paper_eps(tmp_path / f"out{k}", argv[0])


def test_surface_does_not_load_optimize(tmp_path):
    code, loaded = json.loads(python(tmp_path, RUN_CLI, "surface", "--grid",
                                     "16x16", "--out", "out"))
    assert code == 0 and not loaded
