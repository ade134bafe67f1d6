"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

import vpkmeans

MODULES = sorted(Path(vpkmeans.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_check_sees_both_import_forms():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.sin(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
