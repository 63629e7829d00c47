"""Shape guard: no function under ``src/repro/experiments/`` regrows past
150 code lines (non-blank, non-comment, non-docstring) — ``run_batched_serving``
was once 787 — and none under ``src/repro/serving/`` past 80, with
``ServingEngine.build`` kept straight-line (it was once 173 lines with a
callback defined per fault).  The serving suites share one harness
(``tests/serving_harness.py`` and the ``serving_parts`` fixture) instead of
the eight private copies they once carried, and ``src/`` compares records in
one place, :mod:`repro.serving.twins`."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repro"
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


#: What the serving suites get from the shared harness; a test module
#: defining one of these again is a private copy.
SHARED_HARNESS = {
    "serving_parts", "random_session_events", "session_events", "ramped_overload_events",
    "build_engine", "build_layout_engine", "stored_state", "assert_bit_identical",
    "assert_layouts_identical", "assert_record_equal",
}


def test_no_test_module_redefines_the_shared_harness():
    copies = {}
    for path in sorted(TESTS.glob("test_*.py")):
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        if defined & SHARED_HARNESS:
            copies[path.name] = sorted(defined & SHARED_HARNESS)
    assert not copies, f"private copies of the shared serving harness: {copies}"


def _compares_arrays(function) -> bool:
    """Calls ``array_equal``/``array_equiv`` or compares ``.tobytes()`` results."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if callee in ("array_equal", "array_equiv"):
                return True
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Call) and getattr(side.func, "attr", "") == "tobytes"
            for side in (node.left, *node.comparators)
        ):
            return True
    return False


def test_src_holds_one_record_comparator():
    comparators = sorted(
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _compares_arrays(node)
    )
    assert comparators == ["serving/twins.py:_difference"]


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
