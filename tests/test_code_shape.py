"""Shape guard: no function under ``src/repro/experiments/`` regrows past
150 code lines (non-blank, non-comment, non-docstring) — ``run_batched_serving``
was once 787 — and none under ``src/repro/serving/`` past 80, with
``ServingEngine.build`` kept straight-line (it was once 173 lines with a
callback defined per fault)."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
#: Directory -> the most code lines one function there may have.
BUDGETS = {"experiments": 150, "serving": 80}
_NOT_CODE = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)


def function_code_lines(source: str) -> dict[str, int]:
    """``qualified-ish name:lineno -> code lines`` for every function in ``source``
    (a nested function's lines count toward its enclosing function too)."""
    tree = ast.parse(source)
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    functions = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
    return {
        f"{node.name}:{node.lineno}": sum(node.lineno <= line <= node.end_lineno for line in code)
        for node in functions
    }


def oversized_functions(directory: str) -> dict[str, int]:
    budget = BUDGETS[directory]
    oversized = {}
    for path in sorted((PACKAGE / directory).glob("*.py")):
        for name, lines in function_code_lines(path.read_text()).items():
            if lines > budget:
                oversized[f"{path.name}:{name}"] = lines
    return oversized


def test_no_experiment_function_exceeds_the_code_line_budget():
    oversized = oversized_functions("experiments")
    assert not oversized, f"functions over {BUDGETS['experiments']} code lines: {oversized}"


def test_no_serving_function_exceeds_the_code_line_budget():
    oversized = oversized_functions("serving")
    assert not oversized, f"functions over {BUDGETS['serving']} code lines: {oversized}"


def test_engine_build_defines_no_nested_function():
    tree = ast.parse((PACKAGE / "serving" / "engine.py").read_text())
    (engine,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ServingEngine"]
    (build,) = [node for node in engine.body if isinstance(node, ast.FunctionDef) and node.name == "build"]
    nested = [
        getattr(node, "name", "<lambda>")
        for node in ast.walk(build)
        if node is not build and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
    ]
    assert not nested, f"ServingEngine.build defines {nested}"


def test_the_counter_skips_blanks_comments_and_docstrings():
    source = '''
def f(x):
    """Docstring
    over two lines."""
    # a comment

    y = (
        x
    )
    return y
'''
    assert function_code_lines(source) == {"f:2": 5}
