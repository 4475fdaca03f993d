"""No module of the package imports a name it never uses.

A name counts as used where the module reads it (an ast.Name node, the
base of an attribute access included) or lists it in __all__.  No linter
is required: the check reads each module's syntax tree.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src",
                   "pitaevskii")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def unused_imports(text):
    """The names the module source text imports and never uses, sorted."""
    tree = ast.parse(text)
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_the_check_finds_a_stale_import():
    text = ("import os.path\nimport numpy as np\nfrom .model import cubic_product, spectra_of\n"
            "from .grid import Grid\n__all__ = ['Grid']\n\n"
            "def f(plan, state):\n    return np.sum(spectra_of(plan, state).cubic)\n")
    assert unused_imports(text) == ["cubic_product", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
