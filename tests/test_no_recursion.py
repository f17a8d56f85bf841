"""No function in the package calls itself, so no search has a depth limit.

Every module of src/genturan is parsed, and each function, nested ones
included, is checked for a call of its own name: f(...) in f, or
self.f(...) in a method f.  A method that calls the same-named method of
another object (spec.to_json() in to_json) is delegation, not recursion.
"""

import ast
from pathlib import Path

import genturan

SOURCES = sorted(Path(genturan.__file__).parent.glob("*.py"))


def _called_name(call: ast.Call) -> str | None:
    callee = call.func
    if isinstance(callee, ast.Name):
        return callee.id
    if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
        if callee.value.id == "self":
            return callee.attr
    return None


def _self_calls(tree: ast.AST) -> list[str]:
    return [
        f"{node.name} (line {call.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _called_name(call) == node.name
    ]


def test_no_function_calls_itself():
    assert {p.name for p in SOURCES} >= {"graphs.py", "matching.py", "cycles.py"}
    found = {
        path.name: calls
        for path in SOURCES
        if (calls := _self_calls(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
