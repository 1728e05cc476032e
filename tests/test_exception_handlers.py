"""No exception handler in the package swallows errors wholesale.

A handler fails this guard if it is a bare ``except:``, if it catches
``Exception`` or ``BaseException`` (alone or in a tuple), or if its body
is only ``pass``: each hides a failure, or a route change, without a
trace.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcfzeros"
BROAD = {"Exception", "BaseException"}


def _caught(node):
    """Names of the exception classes a handler's type expression names."""
    if node is None:
        return set()
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in items if isinstance(n, (ast.Name, ast.Attribute))}


def _faults(source, filename):
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        where = f"{filename}:{node.lineno}"
        if node.type is None:
            yield f"{where}: bare except"
        elif _caught(node.type) & BROAD:
            yield f"{where}: catches {sorted(_caught(node.type) & BROAD)}"
        if all(isinstance(stmt, ast.Pass) for stmt in node.body):
            yield f"{where}: handler body is only pass"


def test_no_broad_or_silent_handlers():
    faults = [f for path in sorted(SRC.glob("*.py"))
              for f in _faults(path.read_text(), path.name)]
    assert not faults, "\n".join(faults)


def test_guard_detects_each_fault():
    source = "\n".join([
        "try: f()", "except: g()",
        "try: f()", "except Exception: g()",
        "try: f()", "except (ValueError, BaseException) as e: g()",
        "try: f()", "except ValueError: pass",
        "try: f()", "except ValueError: g()",
    ])
    assert [f.split(": ", 1)[1] for f in _faults(source, "m.py")] == [
        "bare except", "catches ['Exception']", "catches ['BaseException']",
        "handler body is only pass"]
