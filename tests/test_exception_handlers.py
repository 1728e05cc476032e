"""No exception handler in the package swallows errors wholesale.

A handler fails this guard if it is a bare ``except:``, if it catches
``Exception`` or ``BaseException`` (alone or in a tuple), or if its body
is only ``pass``, or only ``break`` or ``continue`` (a silent loop exit):
each hides a failure, or a route change, without a trace.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pcfzeros"
BROAD = {"Exception", "BaseException"}
SILENT = ((ast.Pass, "pass"), (ast.Break, "break"),
          (ast.Continue, "continue"))


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
        for kind, word in SILENT:
            if all(isinstance(stmt, kind) for stmt in node.body):
                yield f"{where}: handler body is only {word}"


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
        "for x in y:",
        "    try: f()",
        "    except ValueError: break",
        "    try: f()",
        "    except ValueError: continue",
        "    try: f()",
        "    except ValueError:",
        "        if x: break",
        "        raise",
        "try: f()", "except ValueError: g()",
    ])
    assert [f.split(": ", 1)[1] for f in _faults(source, "m.py")] == [
        "bare except", "catches ['Exception']", "catches ['BaseException']",
        "handler body is only pass", "handler body is only break",
        "handler body is only continue"]
