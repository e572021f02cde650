"""Source hygiene: every name a module or test file imports is used by it,
and a job imports neither numpy.random nor OpenSSL's hashlib."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import attnfuse

PACKAGE = Path(attnfuse.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for line, name in sorted((ln, n) for n, ln in imported.items())
            if name not in used]


def test_package_modules_use_every_name_they_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 10 and len(tests) >= 10
    modules += tests
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


_JOBS = """\
import sys
from attnfuse.cli import run
config, out = sys.argv[1:]
for command in ("invert", "edit", "reconstruct"):
    assert run([command, "--config", config, "--out", f"{out}/{command}"]) == 0
print(sorted(m for m in sys.modules
             if m in ("hashlib", "secrets") or m.split(".")[:2] == ["numpy", "random"]))
"""


def test_a_job_imports_neither_numpy_random_nor_hashlib(tmp_path):
    # SeededRng computes numpy's stream itself: numpy.random's extension
    # modules and the OpenSSL that its `secrets` import loads would add
    # about 6 MiB to every job's peak RSS.
    config = tmp_path / "small.cfg"
    config.write_text("[model]\nframes = 2\nheight = 16\nwidth = 16\nseed = 5\n"
                      "[schedule]\nsteps = 4\n[edit]\npreset = attribute\n"
                      "source_prompt = a red square\nedit_prompt = a blue square\n")
    proc = subprocess.run([sys.executable, "-c", _JOBS, str(config), str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
