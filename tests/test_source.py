"""Static checks on the package source, made with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cellscape"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np.pi, d)\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def class_bases(source):
    """Classes defined at the top level of source, each with its base names."""
    return {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
    }


def raised_names(source):
    """Names raised as ``raise Name(...)`` or ``raise Name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def unraised_errors(errors_source, sources):
    """Exception classes of errors_source that nothing subclasses and no
    source raises by name."""
    bases = [class_bases(s) for s in sources]
    subclassed = set().union(*(b for cls in bases for b in cls.values()))
    raised = set().union(*(raised_names(s) for s in sources))
    return sorted(set(class_bases(errors_source)) - subclassed - raised)


def test_unraised_errors_are_found():
    errors = "class Base(Exception): ...\nclass A(Base): ...\nclass B(Base): ...\n"
    user = "def f():\n    raise A('x')\n"
    assert unraised_errors(errors, [errors, user]) == ["B"]


def test_every_leaf_error_is_raised():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []
