"""Static checks on the package source, and one on the modules it loads,
with the standard library only."""

import ast
import inspect
import os
import subprocess
import sys
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


# the config sections that a call spreads into keyword arguments: a key
# that is no parameter of the callee fails the call, so none is ignored
SPREAD = {"synthetic", "sign", "size_model"}


def schema_keys(kind) -> set[str]:
    """The keys of every section of the config type ``kind`` (a type of
    ``bench._SCHEMA``), except the keys of the sections in ``SPREAD``."""
    keys = set()
    for option in kind if isinstance(kind, tuple) else (kind,):
        if isinstance(option, bench._List):
            keys |= schema_keys(option.item)
        elif isinstance(option, dict):
            for key, (sub, _) in option.items():
                keys |= {key} | (set() if key in SPREAD else schema_keys(sub))
    return keys


def test_every_config_key_is_read():
    """A config key that no module reads would be accepted and ignored."""
    read = set().union(*(keys_read(path.read_text()) for path in MODULES))
    accepted = schema_keys(bench._SCHEMA)
    assert sorted(accepted - read) == []


@pytest.mark.parametrize("section, builder", [("synthetic", bench.gen_synthetic), ("csv", bench.load_csv)])
def test_dataset_sections_match_their_builders(section, builder):
    """A dataset section's keys are the parameters of the function it is
    passed to.  The config requires none that the function defaults, and a
    key it leaves unset (null) is one the function defaults to None; it may
    give a default of its own, as it does for the synthetic bound and seed."""
    keys = bench._SCHEMA["dataset"][0][section][0]
    params = inspect.signature(builder).parameters
    assert set(keys) == set(params)
    assert all(params[key].default is params[key].empty for key, (_, default) in keys.items() if default is ...)
    assert all(params[key].default is None for key, (_, default) in keys.items() if default is None)


def rotate_callers(source: str) -> set[str]:
    """The functions that call a ``rotate`` attribute, each named by its
    innermost ``def``; ``<module>`` for a call outside any."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "rotate":
            found.add(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), "<module>")
    return found


def test_rotate_caller_check_names_the_innermost_function():
    source = "def f(e):\n    def g():\n        return e.rotate(1, 2)\n    return g\nx.rotate(3)\ny = e.rotate\n"
    assert rotate_callers(source) == {"g", "<module>"}


def test_only_the_replication_executor_rotates():
    """Every rotation step is a shift of a replication schedule, so the
    schedules alone fix the rotation keys a run needs."""
    callers = {f"{p.stem}.{name}" for p in MODULES for name in rotate_callers(p.read_text())}
    assert callers == {"packed_matrix._run_replication"}


ROOT = Path(vpkmeans.__file__).resolve().parents[2]
# Public names that only tests reach, kept on purpose, with the reason.
TEST_ONLY = {
    "PackedLayout.from_slots": "decodes a slot vector into the (k, blocks, k) grid for tests of the argmin",
    "s1_style_config": "the S1 stand-in run config of the acceptance tests",
}


def public_definitions(source: str) -> list[str]:
    """Module-level public functions and classes, and the public methods of
    those classes, as ``name`` or ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f"{node.name}.{sub.name}" for sub in node.body
                      if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return names


def names_referenced(source: str, attributes_only: bool = False) -> set[str]:
    """Names read, looked up as attributes or imported (only the attribute
    lookups with ``attributes_only``), except inside the definition that
    binds the same name (a recursive call is no use)."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name) and not attributes_only:
            name = node.id
        elif isinstance(node, ast.alias) and not attributes_only:
            name = node.name
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def test_reference_check_ignores_a_definition_and_its_own_body():
    source = "def f(n):\n    return f(n - 1)\nclass A:\n    def m(self):\n        return g.h\n"
    assert public_definitions(source) == ["f", "A", "A.m"]
    assert names_referenced(source) == {"n", "g", "h"}
    assert names_referenced(source, attributes_only=True) == {"h"}


def test_every_public_name_is_reached_outside_tests():
    """A public function, method or class that only tests call is code the
    program does not need; keep it only with a reason in ``TEST_ONLY``.

    A method counts only where it is looked up as an attribute, not where a
    local variable shares its name, and the re-exports of ``__init__.py``
    count for nothing."""
    sources = [p.read_text() for p in MODULES + sorted((ROOT / "perfbench").glob("*.py"))
               if p.name != "__init__.py"]
    used = set().union(*(names_referenced(s) for s in sources))
    looked_up = set().union(*(names_referenced(s, attributes_only=True) for s in sources))
    unreached = [q for p in MODULES for q in public_definitions(p.read_text())
                 if q.rsplit(".", 1)[-1] not in (looked_up if "." in q else used)]
    assert sorted(unreached) == sorted(TEST_ONLY)


# Defaulted values that no call in the program sets, kept on purpose, with the reason.
UNSET_KEPT = {
    "run_multiparty(computing_party=)": "a deployment setting: which party computes",
    "SignApproxConfig(degree=)": "set from a run config's sign section and perfbench's workloads, through **",
    "SignApproxConfig(tie_margin=)": "set from a run config's sign section and perfbench's workloads, through **",
    **{f"EngineStats({name}=)": "an operation counter that starts at zero; the engine counts up from there"
       for name in ("rotations", "ct_mults", "pt_mults", "additions", "cheb_evals", "encryptions",
                    "max_depth_seen")},
}


def _parameters(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None, bool]]:
    """``(parameter, position, defaulted)`` of every named parameter, the
    position counted without ``self`` or ``cls`` and ``None`` when
    keyword-only."""
    args = (fn.args.posonlyargs + fn.args.args)[1 if method else 0:]
    first = len(args) - len(fn.args.defaults)
    return ([(a.arg, i, i >= first) for i, a in enumerate(args)]
            + [(a.arg, None, d is not None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)])


def _callables(nodes: list):
    """``(callee, function, is_method)`` for every public function and every
    public method or ``__init__`` of a public class among ``nodes``, the
    callee named as a call names it: the class's name for ``__init__``."""
    for node in nodes:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and (sub.name == "__init__" or not sub.name.startswith("_")):
                    yield node.name if sub.name == "__init__" else sub.name, sub, True


def defaulted_values(source: str) -> list[tuple[str, str, int | None]]:
    """``(callee, parameter, position)`` for every defaulted parameter of a
    public function or method and every defaulted public field of a
    dataclass.  The callee is the name a call uses: the function's, the
    method's, or the class's for ``__init__`` and dataclass fields."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                fields = [sub for sub in node.body if isinstance(sub, ast.AnnAssign)]
                found += [(node.name, f.target.id, i) for i, f in enumerate(fields)
                          if f.value is not None and not f.target.id.startswith("_")]
        found += [(callee, name, pos) for callee, fn, method in _callables([node])
                  for name, pos, defaulted in _parameters(fn, method) if defaulted]
    return found


def values_set(source: str) -> dict[str, tuple[int, set[str]]]:
    """Per called name, the most positional arguments any call passes and
    every keyword any call passes, counting the keywords of a ``dict(...)``
    assigned to a name that a call unpacks with ``**``."""
    tree = ast.parse(source)
    unpacked = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "dict"):
            unpacked.setdefault(node.targets[0].id, set()).update(kw.arg for kw in node.value.keywords)
    calls: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            positional, keywords = calls.get(name, (0, set()))
            for kw in node.keywords:
                if kw.arg is not None:
                    keywords.add(kw.arg)
                elif isinstance(kw.value, ast.Name):
                    keywords |= unpacked.get(kw.value.id, set())
            calls[name] = (max(positional, len(node.args)), keywords)
    return calls


def unset_values(definitions: str, callers: list[str]) -> list[str]:
    """The defaulted values of ``definitions`` that no call in ``callers``
    sets, by keyword or by position, as ``callee(parameter=)``."""
    calls: dict = {}
    for source in callers:
        for name, (positional, keywords) in values_set(source).items():
            most, seen = calls.get(name, (0, set()))
            calls[name] = (max(most, positional), seen | keywords)
    unset = []
    for callee, name, pos in defaulted_values(definitions):
        positional, keywords = calls.get(callee, (0, set()))
        if name not in keywords and (pos is None or positional <= pos):
            unset.append(f"{callee}({name}=)")
    return unset


def test_unset_value_check_counts_keyword_and_positional_calls():
    source = (
        "@dataclass\nclass C:\n    a: int\n    b: int = 0\n    c: int = 0\n    _d: int = 0\n"
        "class K:\n    def __init__(self, x=1):\n        pass\n    def m(self, y=1, *, z=2):\n        pass\n"
        "def f(p, q=1, r=2):\n    pass\n"
    )
    calls = "f(0, 5)\nC(1, 2)\nk.m(3)\nkw = dict(z=4)\nK(**kw)\n"
    assert unset_values(source, [calls]) == ["C(c=)", "K(x=)", "m(z=)", "f(r=)"]
    assert unset_values(source, [calls, "f(0, r=1)\nC(1, c=2)\nK(x=2)\nk.m(**kw)\nkw = dict(z=4)\n"]) == []


def test_every_defaulted_value_is_set_outside_tests():
    """A default that only tests change is an option the program does not
    need; keep it only with a reason in ``UNSET_KEPT``."""
    callers = [p.read_text() for p in MODULES + sorted((ROOT / "perfbench").glob("*.py"))]
    unset = [v for p in MODULES for v in unset_values(p.read_text(), callers)]
    assert sorted(unset) == sorted(UNSET_KEPT)


# Parameters that every call passes the same constant, kept on purpose, with the reason.
CONSTANT_KEPT = {}


def _constant(node) -> str | None:
    """The text of a literal or of a module constant (an upper-case name,
    bare or looked up on a module), else ``None``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.operand, ast.Constant):
        return ast.unparse(node)
    if isinstance(node, ast.Constant):
        return repr(node.value)
    name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else ""
    return name if name.isupper() else None


def constant_arguments(definitions: str, callers: list[str]) -> list[str]:
    """The parameters of ``definitions`` to which every call in
    ``callers`` passes the same constant, by keyword or by position, as
    ``callee(parameter)``.  A call with ``*`` or ``**`` is skipped."""
    calls: dict = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
                    and not any(isinstance(a, ast.Starred) for a in node.args)
                    and all(kw.arg is not None for kw in node.keywords)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    flagged = []
    for callee, fn, method in _callables(ast.parse(definitions).body):
        for name, pos, _ in _parameters(fn, method):
            passed = set()
            for call in calls.get(callee, []):
                keyword = [kw.value for kw in call.keywords if kw.arg == name]
                positional = call.args[pos:pos + 1] if pos is not None else []
                passed.add(_constant((keyword or positional or [None])[0]))  # None: left out
            if len(passed) == 1 and None not in passed:
                flagged.append(f"{callee}({name})")
    return flagged


def test_constant_argument_check_counts_positional_and_keyword_literals():
    source = (
        "def f(a, b, c=0, *, d=1):\n    pass\n"
        "class K:\n    def m(self, x, y):\n        pass\n"
    )
    calls = "f(1, ROW, d=2)\nf(1, pm.ROW, 3, d=2)\nf(*args)\nk.m(-1, y=v)\nk.m(-1, 2)\n"
    # a is 1 twice, b the module constant ROW twice and d the keyword 2
    # twice; c is left out once and y is once a variable
    assert constant_arguments(source, [calls]) == ["f(a)", "f(b)", "f(d)", "m(x)"]


def test_no_argument_is_the_same_constant_at_every_call():
    """A parameter to which every call passes the same literal or module
    constant is an option nothing varies; keep it only with a reason in
    ``CONSTANT_KEPT``."""
    callers = [p.read_text() for p in MODULES + sorted((ROOT / "perfbench").glob("*.py"))]
    flagged = [v for p in MODULES for v in constant_arguments(p.read_text(), callers)]
    assert sorted(flagged) == sorted(CONSTANT_KEPT)


# a short run through every entry point: the CLI, a protocol run, the
# accuracy metric and a comparison series
SCIPY_PROBE = """
import sys
import vpkmeans, vpkmeans.bench, vpkmeans.cli
from vpkmeans import bench, protocol
from vpkmeans.secure_argmin import SignApproxConfig, cmp_series
ds = bench.gen_synthetic(90, 3, 2, 0.5, 0.05, seed=1)
alice, bob = protocol.split_features(ds.points, [[0], [1]])
result = protocol.run(alice, bob, None, 2, k=3, bound=0.5, seed=1)
bench.cluster_accuracy(ds, result.centroids)
cmp_series(SignApproxConfig(degree=127))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_a_run_loads_no_scipy():
    """scipy is a test-only reference: the program computes its DCT and its
    assignment with numpy, and a run never loads it."""
    src = str(Path(vpkmeans.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"
