"""Every module-level function in the package has a caller in the package.

A function counts as used when its name appears somewhere in
``src/pcfzeros`` outside its own body: as a name, an attribute, or a
name imported by another module (so the exports of ``__init__`` count).
Tests do not count; a function that only tests call is dead code that
happens to be tested.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcfzeros"

# modules whose functions are exempt as a whole
ALLOWED_MODULES = {
    # Airy seeding of negative-parameter zero strings is undecided
    # (ROADMAP item 4); acceptance criterion 10 exercises the module
    "airy",
}
# single exempt functions, as (module, function)
ALLOWED_FUNCTIONS = {
    # exact dump for diffing the tables against an outside symbolic
    # computation; test_lgcoef.test_dump_format covers its format
    ("lgcoef", "dump_tables"),
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_functions(src=SRC):
    """(module, function) pairs that nothing in ``src`` refers to, other
    than functions that are themselves unused."""
    defined = []  # (module, function)
    refs = []     # (name, owner), owner the enclosing top-level function
    for path in sorted(src.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (module, node.name)
                defined.append(owner)
            refs.extend((name, owner) for name in _names(node))
    candidates = [f for f in defined if f[0] not in ALLOWED_MODULES
                  and f not in ALLOWED_FUNCTIONS]
    dead: list = []
    while True:
        newly = [f for f in candidates if f not in dead and not any(
            ref == f[1] and owner != f and owner not in dead
            for ref, owner in refs)]
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
    assert unused_functions(tmp_path) == [("mod", "recursive"),
                                          ("mod", "only")]
