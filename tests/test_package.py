import ast
import functools
import importlib
import re
import types
from pathlib import Path

import cetsim
import cetsim.cli  # noqa: F401  (binds every module the tracer targets)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = Path(cetsim.__file__).resolve().parent
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_imports():
    """(importer, imported module, nested) for each import of a cetsim module
    in the package's own files; `nested` marks an import inside a function or class body.
    A name of the package that is not one of its modules counts as __init__."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    found = []

    def walk(importer, node, nested):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = "cetsim." * child.level + (child.module or "")
                names = [f"{base.rstrip('.')}.{alias.name}" for alias in child.names]
            for name in names:
                package, _, rest = name.partition(".")
                if package == "cetsim":
                    module = rest.partition(".")[0]
                    target = module if module in modules else "__init__"
                    found.append((importer, target, nested))
            walk(importer, child, nested or isinstance(child, _SCOPES))

    for path in sorted(PACKAGE.glob("*.py")):
        walk(path.stem, ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_public_names_unique_and_resolvable():
    names = cetsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cetsim, name)]
    assert missing == []


def test_trace_targets_are_own_attributes():
    # the benchmark's trace mode patches each target in its owner's __dict__;
    # the tracer is executed from its source, so nothing is written beside it
    tracer = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(tracer))
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in tracer.targets(cetsim)
        if attr not in vars(owner)
    ]
    assert missing == []


def test_package_imports_sit_at_module_level():
    # a function-level import is how an import cycle hides
    nested = [(a, b) for a, b, inside in package_imports() if inside]
    assert nested == []


def test_module_import_graph_is_acyclic():
    graph = {}
    for importer, target, _ in package_imports():
        if target != importer:
            graph.setdefault(importer, set()).add(target)

    def reachable(start):
        seen, stack = set(), [start]
        while stack:
            for nxt in graph.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    assert sorted(m for m in graph if m in reachable(m)) == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the README's Library block is run as written, so a name it shows
    # cannot outlive a rename or a deletion
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("## Library") :].split("```python\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    exec(compile(block[: block.index("```")], "README.md", "exec"), {})
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_readme_module_map_names_exist():
    # every backticked name in the module map, bare or called, is a module
    # of the package or an attribute of one or of a class defined in one; a
    # dotted name is resolved when its first part is a module
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("Module map:\n\n") :].split("\n\n")[1]
    modules = {
        path.stem: importlib.import_module(f"cetsim.{path.stem}")
        for path in PACKAGE.glob("*.py")
        if path.stem not in ("__init__", "__main__")
    }
    known = set(modules)
    for module in modules.values():
        known.update(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                known.update(dir(value), getattr(value, "__dataclass_fields__", ()))
    spans = re.findall(r"`([^`]+)`", section)
    missing = []
    for span in spans:
        name = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        if name is None:
            continue
        first, *rest = name[1].split(".")
        if not rest and first not in known:
            missing.append(span)
        elif rest and first in modules:
            try:
                functools.reduce(getattr, rest, modules[first])
            except AttributeError:
                missing.append(span)
    assert missing == []
    assert set(modules) <= set(spans)  # one entry per module
