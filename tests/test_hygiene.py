"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

import vpkmeans
from vpkmeans import bench

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


def keys_read(source: str) -> set[str]:
    """String constants the module reads as keys: ``x["key"]``,
    ``x.get("key", ...)`` and ``"key" in x``."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            key = node.args[0] if node.args else None
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            key = node.left
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def test_key_read_check_ignores_keys_only_written():
    source = 'a = c["x"]\nb = c.get("y", 1)\nif "z" in c:\n    pass\nc["w"] = 1\nd = {"v": 1}\n'
    assert keys_read(source) == {"x", "y", "z"}


def test_every_config_key_is_read():
    """A config key that no module reads would be accepted and ignored."""
    read = set().union(*(keys_read(path.read_text()) for path in MODULES))
    accepted = set().union(*bench._CONFIG_KEYS.values())
    assert sorted(accepted - read) == []
