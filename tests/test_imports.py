"""Every module of the package uses every name it imports."""

import ast
from pathlib import Path

import polygrid

# Imported but unused on purpose, with the reason.
ALLOWED = {
    # The benchmark tracer (perfbench/tracing.py) wraps `oracle.solvable`
    # by name, so the attribute must exist.
    ("oracle", "solvable"),
}


def _unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_caught():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b", "os"]


def test_no_unused_imports():
    package = Path(polygrid.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in _unused_imports(path.read_text()):
            if (path.stem, name) not in ALLOWED:
                found.append(f"{path.name}: {name}")
    assert found == []
