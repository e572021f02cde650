"""Source hygiene: every name a module or test file imports is used by it."""

import ast
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
