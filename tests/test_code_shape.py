"""Shape guard: no function under ``src/repro/experiments/`` regrows past
150 code lines (non-blank, non-comment, non-docstring) — ``run_batched_serving``
was once 787."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

EXPERIMENTS = Path(__file__).resolve().parents[1] / "src" / "repro" / "experiments"
MAX_CODE_LINES = 150
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


def test_no_experiment_function_exceeds_the_code_line_budget():
    oversized = {}
    for path in sorted(EXPERIMENTS.glob("*.py")):
        for name, lines in function_code_lines(path.read_text()).items():
            if lines > MAX_CODE_LINES:
                oversized[f"{path.name}:{name}"] = lines
    assert not oversized, f"functions over {MAX_CODE_LINES} code lines: {oversized}"


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
