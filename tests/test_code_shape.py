"""Shape guard: no function under ``src/repro/experiments/`` regrows past
150 code lines (non-blank, non-comment, non-docstring) — ``run_batched_serving``
was once 787 — and none under ``src/repro/serving/`` past 80;
``experiments/serving_scenarios.py`` stays one scenario table under a
module ceiling (it was once 694 code lines of per-scenario functions); with
``ServingEngine.build`` kept straight-line (it was once 173 lines with a
callback defined per fault).  The serving suites share one harness
(``tests/serving_harness.py`` and the ``serving_parts`` fixture) instead of
the eight private copies they once carried, ``src/`` compares records in
one place, :mod:`repro.serving.twins`, no hot-path package forks on a
batch of one row, and no module hides a per-element Python call behind
``np.vectorize``.  ``tests/test_kernel_spellings.py`` keeps one reference
per kernel (it once held three frozen generations of the aggregation
featurizer, 2 002 lines) under a code-line ceiling.  The hidden-state
backend has one state layout, the arena: no module reads the retired
``EngineConfig.state_layout`` (``serving/batching.py`` once carried a
per-key ``entries`` path beside it, and stays under a ceiling)."""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "repro"
#: Directory -> the most code lines one function there may have.
BUDGETS = {"experiments": 150, "serving": 80}
#: Module -> the most code lines it may have.
MODULE_CEILINGS = {"experiments/serving_scenarios.py": 600, "serving/batching.py": 531}
_NOT_CODE = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)


def code_lines(source: str) -> set[int]:
    """The line numbers of ``source`` that hold code: not blank, not only a
    comment, not part of a module, class or function docstring."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return code


def function_code_lines(source: str) -> dict[str, int]:
    """``qualified-ish name:lineno -> code lines`` for every function in ``source``
    (a nested function's lines count toward its enclosing function too)."""
    code = code_lines(source)
    return {
        f"{node.name}:{node.lineno}": sum(node.lineno <= line <= node.end_lineno for line in code)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
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


def test_no_module_exceeds_its_code_line_ceiling():
    counts = {module: len(code_lines((PACKAGE / module).read_text())) for module in MODULE_CEILINGS}
    over = {module: count for module, count in counts.items() if count > MODULE_CEILINGS[module]}
    assert not over, f"modules over their code-line ceiling {MODULE_CEILINGS}: {over}"


def test_no_module_reads_the_retired_state_layout():
    """``EngineConfig.state_layout`` selects nothing: every name of it under
    ``src/repro`` as an attribute, variable, parameter or keyword is the
    dataclass field itself (its check, and the manifest fields it is
    reserved from, name it as a string key)."""
    uses = sorted(
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if "state_layout"
        in (getattr(node, "attr", None), getattr(node, "id", None), getattr(node, "arg", None))
    )
    (field,) = [
        node.lineno
        for node in ast.walk(ast.parse((PACKAGE / "serving" / "engine.py").read_text()))
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "state_layout"
    ]
    assert uses == [f"serving/engine.py:{field}"], f"reads of the retired state_layout: {uses}"


#: The aggregation featurizer's one reference: a re-spelling extends its
#: strategies instead of freezing its own parent beside it (ROADMAP item 10).
KERNEL_REFERENCES = {"ParentAggregator", "ParentFeaturizer"}
#: The most code lines ``tests/test_kernel_spellings.py`` may have.
KERNEL_SPELLINGS_CEILING = 1220


def test_the_kernel_spellings_keep_one_reference_per_kernel():
    source = (TESTS / "test_kernel_spellings.py").read_text()
    frozen = {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name.endswith(("Featurizer", "Aggregator"))
    }
    assert frozen <= KERNEL_REFERENCES, f"featurizer spellings beside the reference: {sorted(frozen - KERNEL_REFERENCES)}"
    assert len(code_lines(source)) <= KERNEL_SPELLINGS_CEILING


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
    "assert_layouts_identical", "assert_record_equal", "PerKeyStates",
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


#: A batch-size fork: a branch taken only when one row, request or key rides.
SINGLE_ROW_FORK = re.compile(r"len\((requests|updates|contexts|X|keys|rows)\) == 1|shape\[0\] == 1")
#: The packages on the request and session-end path.
HOT_PATH_PACKAGES = ("serving", "features", "models", "nn", "ml")


def test_no_single_row_fork():
    """The batched code serves one row with the same lines as 64: a
    ``len(requests) == 1`` fork was measured and rejected (ROADMAP), and a
    layout that is slow at batch 1 is fixed by a spelling that is cheap for
    one row, not by a second path for it."""
    forks = [
        f"{path.relative_to(PACKAGE)}:{number}: {line.strip()}"
        for directory in HOT_PATH_PACKAGES
        for path in sorted((PACKAGE / directory).rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if SINGLE_ROW_FORK.search(line)
    ]
    assert not forks, f"single-row forks: {forks}"


def test_no_np_vectorize():
    """``np.vectorize`` is one Python call per element behind a NumPy name: the
    tree grower's node lookup spelled with it was the grower's hottest line."""
    uses = [
        f"{path.relative_to(PACKAGE)}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"\bvectorize\b", line)
    ]
    assert not uses, f"np.vectorize under src/repro: {uses}"


def test_the_fork_pattern_matches_what_it_forbids():
    assert SINGLE_ROW_FORK.search("if len(requests) == 1:")
    assert SINGLE_ROW_FORK.search("    return x if X.shape[0] == 1 else y")
    assert not SINGLE_ROW_FORK.search("if len(requests) > 1:")


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
    assert len(code_lines(source)) == 5
