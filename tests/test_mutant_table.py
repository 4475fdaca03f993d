import ast
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_runner():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(ROOT, "tools",
                                                                          "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNNER = _load_runner()
MUTANTS = RUNNER.MUTANTS


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
    assert {"_fluid_substep.stage", "StepHistory.corrector_curve",
            "StepHistory.split_guess"} <= sites


def test_runner_makes_its_workdir_and_rejects_unknown_names(tmp_path, monkeypatch):
    # --workdir names a directory that need not exist yet; the copies go
    # there.  A name outside the table is an error, not an empty selection
    # whose baseline is the whole suite
    workdirs = []

    def fake_run_tests(killers, workdir, prefix, mutant=None):
        assert os.path.isdir(workdir)
        workdirs.append(workdir)
        return 0 if mutant is None else 1

    monkeypatch.setattr(RUNNER, "_run_tests", fake_run_tests)
    workdir = str(tmp_path / "new" / "dir")
    assert RUNNER.main(["--workdir", workdir, MUTANTS[0].name]) == 0
    assert workdirs == [workdir, workdir]
    with pytest.raises(SystemExit):
        RUNNER.main(["--workdir", workdir, "no-such-mutant"])
