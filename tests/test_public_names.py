"""The package exports exactly its modules' public names, every public name
resolves, every name the benchmark traces exists, and every demo runs to
completion."""

import ast
import importlib
import pathlib
import runpy
import sys

import pytest

import splitnoise

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("gaussian_algebra", "ccr_matrix", "warren_sim")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def traced_names():
    """(module, qualified attribute) of each entry of bench/run.py's
    TRACED, read from the source without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return [tuple(ast.literal_eval(e) for e in entry.elts[:2])
                    for entry in node.value.elts]
    raise AssertionError("bench/run.py defines no TRACED")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"splitnoise.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_package_exports_exactly_the_modules_all():
    # each module's __all__ is the one list of public names: a second,
    # hand-kept list in __init__.py would add or drop a name here
    public = {n for n in vars(splitnoise) if not n.startswith("_")}
    # the import system binds each loaded submodule, cli among them once a
    # test has imported it
    loaded = {n for n in public if f"splitnoise.{n}" in sys.modules}
    assert set(MODULES) <= loaded <= set(MODULES) | {"cli"}
    exported = set().union(*(importlib.import_module(f"splitnoise.{m}").__all__
                             for m in MODULES))
    assert public - loaded == exported


@pytest.mark.parametrize("module,qualname", traced_names())
def test_every_traced_name_resolves(module, qualname):
    # the tracer looks each name up with no default: a missing one makes
    # every traced benchmark run raise AttributeError
    owner = importlib.import_module(f"splitnoise.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_completion(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write their artifacts to the cwd
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


SOURCES = sorted(p for p in (ROOT / "src" / "splitnoise").glob("*.py")
                 if p.name != "__init__.py")  # __init__.py only re-exports


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_no_module_has_an_unused_import(source):
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def names_read(path):
    """Every name a module loads and every attribute it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


# the dense P + Q + R = 0 triple is the oracle that the tests hold the
# reduced sign-sum kernel to; nothing outside the tests needs it
TEST_ONLY_EXPORTS = {"symmetric_triple"}


def test_every_exported_name_is_read_outside_the_tests():
    # an exported name that only tests reach is surface kept alive for its
    # tests: its body belongs in tests/ as an oracle
    readers = [*(ROOT / "src" / "splitnoise").glob("*.py"), *DEMOS,
               ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*map(names_read, readers),
                       *(q.split(".") for _, q in traced_names()))
    exported = set().union(*(importlib.import_module(f"splitnoise.{m}").__all__
                             for m in MODULES))
    assert sorted(exported - read - TEST_ONLY_EXPORTS) == []
    assert TEST_ONLY_EXPORTS <= exported - read


def test_every_private_helper_is_used_by_the_package():
    # a private name that only tests reach, at module level or in a class
    # body (a method or a class attribute), is dead code kept alive for
    # its tests: the tests should use the public names instead
    defined, used = set(), set()
    for source in (ROOT / "src" / "splitnoise").glob("*.py"):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for node in tree.body + [n for c in classes for n in c.body]:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined |= {n.id for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    private = {n for n in defined
               if n.startswith("_") and not n.endswith("__")}
    assert {"_store", "_derived", "_on_breaks", "_gram_norm"} <= private
    assert sorted(private - used) == []


def public_functions(tree):
    """(qualified name, node) of each public function, and of each public
    method of a public class, at the top level of a module."""
    def public(node, kind):
        return isinstance(node, kind) and not node.name.startswith("_")
    for node in tree.body:
        if public(node, ast.FunctionDef):
            yield node.name, node
        elif public(node, ast.ClassDef):
            yield from ((f"{node.name}.{n.name}", n) for n in node.body
                        if public(n, ast.FunctionDef))


def first_reads(path, fields=False):
    """('function: parameter', parent node) of the first read, in source
    order, of each parameter of a public function or method and, with
    fields, of each field of a public class that its __post_init__ reads
    as self.field ('Class.__post_init__: field')."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}

    def first(fn, is_read):
        reads = [n for stmt in fn.body for n in ast.walk(stmt) if is_read(n)]
        node = min(reads, key=lambda n: (n.lineno, n.col_offset), default=None)
        return parents.get(node)
    for qualname, fn in public_functions(tree):
        a = fn.args
        for param in [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]:
            yield f"{qualname}: {param}", first(fn, lambda n: (
                isinstance(n, ast.Name) and n.id == param
                and isinstance(n.ctx, ast.Load)))
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)
               and not n.name.startswith("_")] if fields else []
    for cls in classes:
        names = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                yield from ((f"{cls.name}.__post_init__: {name}", first(
                    fn, lambda n: isinstance(n, ast.Attribute)
                    and n.attr == name and isinstance(n.value, ast.Name)
                    and n.value.id == "self" and isinstance(n.ctx, ast.Load)))
                    for name in names)


def coerced_parameters(path):
    """'function: parameter' for each parameter of a public function or
    method whose first read, in source order, is float(p) or complex(p)."""
    return [read for read, call in first_reads(path)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in ("float", "complex")]


ARRAY_CONVERSIONS = ("asarray", "array", "asanyarray", "ascontiguousarray")


def converted_arrays(path):
    """'function: parameter' for each parameter of a public function or
    method, and 'Class.__post_init__: field' for each field, whose first
    read, in source order, is an np.asarray, np.array, np.asanyarray or
    np.ascontiguousarray of it."""
    return [read for read, call in first_reads(path, fields=True)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "np"
            and call.func.attr in ARRAY_CONVERSIONS]


def test_no_public_entry_coerces_a_parameter_before_its_check():
    # float() and complex() take "0.5" and True as numbers and name no
    # parameter when they fail; a scalar enters through _whole,
    # _finite_real or _finite_amplitude instead
    assert [f"{source.stem}.{read}" for source in SOURCES
            for read in coerced_parameters(source)] == []


def test_no_public_entry_converts_an_array_before_its_check():
    # np.asarray and np.array take strings, bools and NaN and may keep the
    # caller's array, whose later writes leave a span's or a path's kept
    # results stale; an array enters through _finite_array instead
    assert [f"{source.stem}.{read}" for source in SOURCES
            for read in converted_arrays(source)] == []
