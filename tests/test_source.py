"""Static checks on the package source, made with ``ast``, and one check of
every fixture's wiring plan."""

import ast
from pathlib import Path

import pytest

from cellscape import CellNetwork, NetworkConfig, load_fixture
from cellscape.genotype import FIXTURE_NAMES

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


def unpassed_defaults(sources):
    """(function, parameter) for every keyword default of a function defined
    in sources that no call in sources passes, by keyword or by position.
    Calls are matched to definitions by name alone, ``__init__`` by its
    class's name; a method's ``self`` is not a position of its calls."""
    defaults, passed = [], {}
    for tree in map(ast.parse, sources):
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                fn = methods[id(node)] if node.name == "__init__" else node.name
                args = node.args
                positional = (args.posonlyargs + args.args)[id(node) in methods:]
                first = len(positional) - len(args.defaults)
                defaults += [(fn, i, a.arg) for i, a in enumerate(positional) if i >= first]
                defaults += [(fn, None, a.arg)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                star = any(isinstance(a, ast.Starred) for a in node.args)
                count = float("inf") if star else len(node.args)
                keywords = {k.arg for k in node.keywords}
                passed.setdefault(name, []).append((count, keywords))
    return [(fn, param) for fn, index, param in defaults
            if not any((index is not None and index < count) or param in keywords
                       or None in keywords for count, keywords in passed.get(fn, []))]


def test_unpassed_defaults_are_found():
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class K:\n    def __init__(self, r=1):\n        pass\n"
              "    def m(self, x=0, y=1):\n        pass\n"
              "def g(p=0):\n    pass\n"
              "f(0, 5)\nf(0, d=4)\nK(r=2).m(7)\ng(**{})\n")
    assert unpassed_defaults([source]) == [("f", "c"), ("m", "y")]


def test_every_keyword_default_is_passed_somewhere():
    # a default that no call overrides is a constant posing as an option.
    # The one exception is cli.main's argv: the installed console script
    # calls main() with no arguments, and only tests pass a command line.
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unpassed_defaults(sources) == [("main", "argv")]


def package_imports(source):
    """Modules of this package that source imports from, by bare name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = ("cellscape." if node.level else "") + (node.module or "")
            if module.rstrip(".") == "cellscape":
                found.update(a.name for a in node.names)
            elif module.startswith("cellscape."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("cellscape."))
    return found


def test_package_imports_are_found():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from . import autodiff as ad\nfrom .errors import ParseError\n"
              "from cellscape.network import CellNetwork\nimport cellscape.training\n")
    assert package_imports(source) == {"autodiff", "errors", "network", "training"}


# the tape engine, everything built on it, and the linear theory, which
# reads genotypes: nothing a cell-topology module needs
ENGINE = {"autodiff", "network", "training", "landscape", "linear_theory"}


@pytest.mark.parametrize("name", ["genotype.py", "metrics.py", "sampler.py", "linear_theory.py"])
def test_topology_module_imports_no_engine(name):
    # validating, measuring, counting and sampling cells needs no tape, and
    # the linear cells' gradients are closed forms read off a genotype
    assert package_imports((SRC / name).read_text()) & ENGINE == set()


def outside_imports(source):
    """Top-level names of the modules outside this package that source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found - {"__future__", "cellscape"}


def test_outside_imports_are_found():
    source = ("from __future__ import annotations\nimport numpy.linalg\nimport click, sys\n"
              "from json import dumps\nfrom . import rng\nfrom .errors import ParseError\n"
              "from cellscape.rng import stream\n")
    assert outside_imports(source) == {"click", "json", "numpy", "sys"}


def test_cli_imports_no_numpy():
    # numerics, and the policy for non-finite values, stay in library modules
    assert "numpy" not in outside_imports((SRC / "cli.py").read_text())


NOT_ARTIFACTS = [p for p in sorted(SRC.glob("*.py")) if p.name != "artifacts.py"]


@pytest.mark.parametrize("path", NOT_ARTIFACTS, ids=lambda p: p.name)
def test_only_artifacts_opens_files_for_writing(path):
    # one module opens files, to write or to read, so how artifacts reach the
    # disk and how a file that cannot be read is reported are decided once
    assert calls_of(path.read_text(), "open") == []


@pytest.mark.parametrize("path", NOT_ARTIFACTS, ids=lambda p: p.name)
def test_only_artifacts_makes_directories(path):
    # each write makes its own directory, so a command makes its output
    # directory only with its first artifact, after every check
    source = path.read_text()
    assert calls_of(source, "mkdir") == [] and calls_of(source, "makedirs") == []


@pytest.mark.parametrize("path", NOT_ARTIFACTS, ids=lambda p: p.name)
def test_only_artifacts_imports_os_or_importlib(path):
    # the file system, the bundled fixtures included, is reached through
    # artifacts alone
    assert outside_imports(path.read_text()) & {"os", "importlib"} == set()


def calls_of(source, name):
    """Lines of calls to a function called ``name``, as ``name(...)`` or
    ``module.name(...)``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_calls_are_found():
    source = ("validate_genotype(g)\ngenotype.validate_genotype(g)\nvalidate_genotype\n"
              "x = f(validate_genotype(g))\nvalidate(g)\n"
              "pick = stream(seed, 'data').choice(9, size=3)\n")
    assert calls_of(source, "validate_genotype") == [1, 2, 4]
    assert calls_of(source, "stream") == [6]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "genotype.py"],
                         ids=lambda p: p.name)
def test_only_the_genotype_constructor_validates(path):
    # a CellGenotype is checked when it is built, so every one is valid
    assert calls_of(path.read_text(), "validate_genotype") == []


def top_level_callers(name):
    """module.definition of each top-level definition of src/ that calls name."""
    return [f"{p.stem}.{getattr(top, 'name', '<module>')}" for p in MODULES
            for top in ast.parse(p.read_text()).body if calls_of(ast.unparse(top), name)]


def test_only_grid_coordinates_calls_linspace():
    # a landscape's coordinates, and their exact centre, are made in one place
    assert top_level_callers("linspace") == ["landscape.grid_coordinates"]


def test_only_rank1_squares_a_factor():
    # a rank-1 factor is scaled and its rows reduced in one place, once per
    # factor, so no second copy of that reduction can drift from it
    assert top_level_callers("square") == ["rank1.scaled"]


def test_only_rank1_scales_a_factor():
    # the exact power-of-two scaling of a factor, the smoothness check's u
    # included, is written once
    assert top_level_callers("frexp") == ["rank1.scaled"]


def test_only_typed_calls_type():
    # the rule that a JSON value's type is exact (true is not an integer, nor
    # is 1.0) is written once, for every file read back
    assert top_level_callers("type") == ["artifacts.typed"]


def test_float_sums_are_running_sums():
    # from Python 3.12 the builtin sum compensates a float sum, so a float
    # total that reaches an artifact is added left to right, the same bits on
    # every Python that pyproject allows; these sum arrays, bools, ints and
    # Fractions, and the tape's mean_of adds its parts in place
    callers = {f"{p.stem}.{getattr(top, 'name', '<module>')}" for p in MODULES
               for top in ast.parse(p.read_text()).body for node in ast.walk(top)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"}
    assert sorted(callers) == ["cli.compare", "linear_theory.grad_factors",
                               "metrics.cell_width", "metrics.per_node_widths"]


def string_args(source, name):
    """The string constants that each call of ``name`` in source reads, one
    sorted list per call."""
    return [sorted(c.value for c in ast.walk(node) if isinstance(c, ast.Constant)
                   and isinstance(c.value, str))
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_string_args_are_found():
    source = "f(x, v['a'], g(v['b']))\nf(0)\nh('c')\n"
    assert string_args(source, "f") == [["a", "b"], []]


def test_every_parameter_is_one_dense_or_linear_part():
    # per-example variances read each block off one layer, so every
    # parameter is the weight or bias of one dense, or the weight of one
    # linear node part: the stem and head are the only dense layers, and
    # the plan names each cell weight once, in a linear part
    assert top_level_callers("dense") == ["network.CellNetwork"]
    assert sorted(string_args((SRC / "network.py").read_text(), "dense")) == [
        ["head.b", "head.w"], ["stem.b", "stem.w"]]
    for fixture in FIXTURE_NAMES:
        net = CellNetwork(load_fixture(fixture), NetworkConfig())
        parts = [part for _, step, *_ in net._plan for part in step]
        weights = [w for kind, _, w in parts if w]
        assert all((kind == "linear") == bool(w) for kind, _, w in parts), fixture
        assert len(weights) == len(set(weights)), fixture
        assert sorted(weights + ["head.b", "head.w", "stem.b", "stem.w"]) == list(
            net.layout.blocks), fixture


def test_only_network_walks_the_plan():
    # the wiring is read once, into CellNetwork's plan, and only its own
    # passes walk it
    assert [f"{p.stem}.{name}" for p in MODULES
            for name in readers_of(p.read_text(), "_plan")] == ["network.CellNetwork"]


def readers_of(source, attr):
    """Top-level definitions of source that read an attribute called ``attr``."""
    return [getattr(top, "name", "<module>") for top in ast.parse(source).body
            if any(isinstance(node, ast.Attribute) and node.attr == attr
                   for node in ast.walk(top))]


def test_attribute_readers_are_found():
    source = ("def f(g):\n    return g.nodes[0].source\n"
              "def h(source):\n    return source\n"
              "x = y.source\n")
    assert readers_of(source, "source") == ["f", "<module>"]


def test_only_grad_factors_walks_a_wiring():
    # one reverse sweep reads a linear cell's sources; every check of the
    # linear theory takes its factors and Gram from it
    assert readers_of((SRC / "linear_theory.py").read_text(), "source") == ["grad_factors"]


def test_autodiff_is_array_maths_alone():
    # the layers' array maths do no I/O and know no parameter layout and no
    # wiring; rank1, their one other import, is numpy only
    # (test_rank1_imports_nothing_from_the_package)
    source = (SRC / "autodiff.py").read_text()
    assert package_imports(source) <= {"errors", "rank1"}
    assert outside_imports(source) & {"json", "struct"} == set()
    params = {a.arg for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)
              for a in node.args.args + node.args.kwonlyargs}
    assert params & {"layout", "plan", "network"} == set()
    assert not any(isinstance(node, ast.ClassDef) for node in ast.walk(ast.parse(source)))
    # each layer is one forward function and one gradient function
    functions = {top.name for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    for layer in ("dense", "node", "mean_of", "softmax_cross_entropy"):
        assert {layer, f"{layer}_grad"} <= functions


def shape_mismatch_raisers(source):
    """The top-level functions and the ``Class.method``s of ``source`` that
    raise ShapeMismatch."""
    tree = ast.parse(source)
    defs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    defs += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
             for f in c.body if isinstance(f, ast.FunctionDef)]
    return sorted(name for name, f in defs
                  if "ShapeMismatch" in raised_names(ast.get_source_segment(source, f)))


def test_only_the_network_and_sgd_step_raise_shape_mismatch():
    # a pass's shapes are checked once, in the network's forward, before it
    # starts: in autodiff only the optimizer's step raises ShapeMismatch, and
    # in network only forward and a checkpoint's save
    assert shape_mismatch_raisers((SRC / "autodiff.py").read_text()) == ["sgd_step"]
    assert shape_mismatch_raisers((SRC / "network.py").read_text()) == [
        "CellNetwork.forward", "ParamLayout.save"]
    assert [p.stem for p in MODULES if "ShapeMismatch" in raised_names(p.read_text())] == [
        "autodiff", "network"]


def test_no_module_builds_a_per_example_tensor():
    # per-example and per-row gradients, the tape's and the linear theory's,
    # are reduced from their rank-1 factors, never built as one (n, out, in)
    # array
    assert top_level_callers("einsum") == []


def test_rank1_imports_nothing_from_the_package():
    # the one rank-1 reduction is numpy alone, so the tape and the linear
    # theory share it without either importing the other
    source = (SRC / "rank1.py").read_text()
    assert package_imports(source) == set()
    assert outside_imports(source) == {"numpy"}


def test_cli_draws_no_random_numbers():
    # every draw of a command lives in the library module that owns it
    assert calls_of((SRC / "cli.py").read_text(), "stream") == []


def unreferenced_definitions(sources):
    """Top-level functions and classes of sources that no code in sources
    names outside their own definition.  A reference is a name, an attribute
    or an imported name, so a re-export from ``__init__.py`` is one: it makes
    the definition public.  Click commands run from the command line, not by
    name, and are exempt."""
    defined, named = set(), set()
    for tree in map(ast.parse, sources):
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if not any(isinstance(d, ast.Call) and getattr(d.func, "attr", None)
                           in ("command", "group") for d in top.decorator_list):
                    defined.add(own)
            for node in ast.walk(top):
                names = ([node.id] if isinstance(node, ast.Name)
                         else [node.attr] if isinstance(node, ast.Attribute)
                         else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                         else [])
                named.update(n for n in names if n != own)
    return sorted(defined - named)


def test_unreferenced_definitions_are_found():
    source = ("from .m import shown\n"
              "def used():\n    return helper(0)\n"
              "def helper(n):\n    return helper(n - 1) if n else Box\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Box:\n    def method(self):\n        pass\n"
              "class Unused:\n    pass\n"
              "@cli.command()\ndef run():\n    used()\n"
              "@click.group()\ndef cli():\n    pass\n"
              "def shown():\n    pass\n")
    assert unreferenced_definitions([source]) == ["Unused", "recursive"]


def test_every_definition_is_referenced_in_src():
    # a helper that only tests use belongs in tests/
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources) == []
