import ast
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_table():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools",
                                                                          "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_table()


def _function_lines(tree, qualname):
    """(first, last) line of the function or method at qualname."""
    node = tree
    for part in qualname.split("."):
        node = next(n for n in ast.walk(node)
                    if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return node.lineno, node.end_lineno


@pytest.mark.parametrize("m", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_source_occurs_once_in_its_function(m):
    # the runner (tools/mutants.py) replaces this text; it must still be
    # there exactly once, inside the function the entry names
    with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(m.source) == 1
    assert m.mutant != m.source
    first, last = _function_lines(ast.parse(text), m.site.split(":")[1])
    line = text[:text.index(m.source)].count("\n") + 1
    assert first <= line <= last
    for killer in m.killers:
        path, _, test = killer.partition("::")
        test = test.partition("[")[0]       # a parametrized test's id
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            assert not test or f"def {test}(" in fh.read()


def test_table_covers_the_stage_body_and_both_guesses():
    sites = {m.site.split(":")[1] for m in MUTANTS}
    assert {"_fluid_substep.stage", "StepHistory.pcg_guess", "StepHistory.split_guess"} <= sites
