"""Every module of the package uses every name it imports."""

import ast
import importlib.util
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


def test_tracer_targets_exist():
    """Every attribute the benchmark tracer wraps still exists, so a rename
    fails here and not only in the traced benchmark."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(target, attr) for targets, attr, _, _ in tracing._SPANS
               for target in targets]
    targets += [(target, attr) for target, attr, _ in tracing._COUNTERS]
    missing = [f"{getattr(t, '__name__', t)}.{attr}" for t, attr in targets
               if not callable(getattr(t, attr, None))]
    assert len(targets) > 20
    assert missing == []
