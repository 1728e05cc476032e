"""Every class, function and method in the package has a caller.

A top-level class, a function, or a method of a class counts as used
when its name appears somewhere in ``src/pcfzeros`` outside its own
body, or anywhere in ``perfbench`` (the benchmark imports and patches
package names): as a name, an attribute, or a name imported by another
module (so the exports of ``__init__`` count).  A name that appears
only in the body of an unused definition does not count either.  Tests
do not count; a function that only tests call is dead code that happens
to be tested.  Dunder methods are called by the interpreter, and a
method that overrides one of a base class by that base class, so both
count as used.  Every module of the package is checked.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pcfzeros"
CALLERS = ROOT / "perfbench"


def _refs(node, owners, enclosing=()):
    """(name, enclosing) for every name, attribute and imported name
    under node; enclosing holds the entries of `owners` for the nodes
    around it that have one, outermost first."""
    if id(node) in owners:
        enclosing += (owners[id(node)],)
    name = (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else
            node.name if isinstance(node, ast.alias) else None)
    if name is not None:
        yield name, enclosing
    for child in ast.iter_child_nodes(node):
        yield from _refs(child, owners, enclosing)


def _module(path):
    """The module of a source file, imported as part of the package when
    the file is in it."""
    if path.parent == SRC:
        return importlib.import_module(f"pcfzeros.{path.stem}")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _overrides(path, cls, name):
    """True if class `cls` of the module at `path` inherits `name` from a
    base class."""
    bases = getattr(_module(path), cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def _definitions(path, module, tree):
    """(owner, node) for each top-level function and class and each
    method that is neither a dunder nor a base-class override; owner is
    (module, name) with name "Class.method" for a method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            yield (module, node.name), node
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))
                        and not _overrides(path, node.name, sub.name)):
                    yield (module, f"{node.name}.{sub.name}"), sub


def unused_functions(src=SRC, callers=(CALLERS,)):
    """(module, name) pairs of classes, functions and methods
    ("Class.method") that nothing in ``src`` or in the directories
    ``callers`` refers to, other than definitions that are themselves
    unused."""
    defined = []  # (module, name)
    refs = []     # (name, enclosing definitions)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = {id(node): owner
                  for owner, node in _definitions(path, path.stem, tree)}
        defined += owners.values()
        refs += _refs(tree, owners)
    for path in sorted(p for d in callers for p in d.glob("*.py")):
        refs += _refs(ast.parse(path.read_text()), {})
    dead: list = []
    while True:
        newly = [f for f in defined if f not in dead and not any(
            ref == f[1].rpartition(".")[2] and f not in enclosing
            and not any(owner in dead for owner in enclosing)
            for ref, enclosing in refs)]
        if not newly:
            return dead
        dead += newly


def test_every_function_has_a_caller():
    assert unused_functions() == []


def test_guard_sees_an_unused_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else only()\n"
        "\n\ndef only():\n    return 2\n\n\nVALUE = used()\n")
    # `only` is called from `recursive` alone, which nothing calls
    assert unused_functions(tmp_path, ()) == [("mod", "recursive"),
                                              ("mod", "only")]


def test_guard_sees_an_unused_method(tmp_path):
    (tmp_path / "klass.py").write_text(
        "import json\n\n\n"
        "class Box:\n"
        "    def __add__(self, other):\n        return self\n\n"
        "    def used(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.helper()\n\n"
        "    def timed(self):\n        return 2\n\n\n"
        "class Encoder(json.JSONEncoder):\n"
        "    def default(self, o):\n        return str(o)\n\n\n"
        "VALUE = Box().used()\nENCODER = Encoder()\n")
    # dunders and overrides of a base class's methods are exempt
    assert unused_functions(tmp_path, ()) == [("klass", "Box.unused"),
                                              ("klass", "Box.timed")]
    # a caller outside the package, such as the benchmark, counts
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text("from klass import Box\nBox().timed()\n")
    assert unused_functions(tmp_path, (bench,)) == [("klass", "Box.unused")]


def test_guard_sees_an_unused_class(tmp_path):
    (tmp_path / "kinds.py").write_text(
        "class Unused:\n"
        "    def make(self):\n        return Unused(), Helper()\n\n\n"
        "class Helper:\n    pass\n\n\n"
        "class Used:\n    pass\n\n\n"
        "VALUE = Used()\n")
    # `Unused` is named only in its own body, and `Helper` only in the
    # body of `Unused`
    assert unused_functions(tmp_path, ()) == [("kinds", "Unused"),
                                              ("kinds", "Unused.make"),
                                              ("kinds", "Helper")]
