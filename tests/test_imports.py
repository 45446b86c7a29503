"""Every module of the package other than `__init__` uses each name it
imports, every module uses each private name it defines at module level,
and every public name the package defines is read by the program or the
benchmark.

The checks read the source with `ast`: a name counts as used when it occurs
as a name in the module, including inside a string annotation.
`__init__.py` is left out of the import check, since its imports are the
package's exports.  A private name (`_name`, not `__name__`) defined by a
module-level function, class or assignment must be read by another
module-level statement; a private helper that only calls itself, or that
nothing calls, is dead code.  A public name defined at module level must be
read by another statement of the package, `__init__` left out, or by the
benchmark in `bench/`, as a name, an attribute (`dl.name`) or an import
from the package; a name only tests read belongs in the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "deplogic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def used_names(tree: ast.AST) -> set[str]:
    """The names read in tree, string annotations included."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                annotation = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def dead_private_names(source: str) -> list[str]:
    body = ast.parse(source).body
    uses = [used_names(node) for node in body]
    dead = []
    for i, node in enumerate(body):
        for name in _defined(node):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in used for j, used in enumerate(uses) if j != i):
                dead.append(f"{name} (line {node.lineno})")
    return dead


def read_names(tree: ast.AST) -> set[str]:
    """The names read in tree: as names, as attributes, or imported from the
    package."""
    read = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "deplogic"
        ):
            read.update(alias.name for alias in node.names)
    return read


def dead_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The public module-level names of modules (file name -> source) that no
    other statement of any module and no source in readers reads."""
    bodies = {name: ast.parse(source).body for name, source in modules.items()}
    reads = {name: [read_names(node) for node in body] for name, body in bodies.items()}
    outside = set().union(*(read_names(ast.parse(source)) for source in readers))
    dead = []
    for module, body in bodies.items():
        for i, node in enumerate(body):
            for name in _defined(node):
                if name.startswith("_") or name in outside:
                    continue
                if not any(
                    name in used
                    for other, uses in reads.items()
                    for j, used in enumerate(uses)
                    if (other, j) != (module, i)
                ):
                    dead.append(f"{module}: {name} (line {node.lineno})")
    return dead


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text()) == []


def test_no_dead_public_names():
    modules = {path.name: path.read_text() for path in MODULES}
    assert dead_public_names(modules, [path.read_text() for path in BENCH]) == []


def test_check_catches_an_unused_import():
    source = "from typing import Optional, Union\n\ndef f(x: Union[int, str]): return x\n"
    assert unused_imports(source) == ["Optional (line 1)"]


def test_check_catches_a_dead_private_name():
    source = (
        "def _used(): return 1\n"
        "def _recursive(n): return _recursive(n - 1)\n"
        "_TABLE: dict = {}\n"
        "_A, _B = 1, 2\n"
        "class _Node: pass\n"
        "def __getattr__(name): return _A\n"
        "def f() -> '_Node': return _used()\n"
    )
    assert dead_private_names(source) == ["_recursive (line 2)", "_TABLE (line 3)", "_B (line 4)"]


def test_check_catches_a_dead_public_name():
    modules = {
        "a.py": (
            "def called(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def tested(): return 2\n"
            "LIMIT = 3\n"
        ),
        "b.py": "from .a import called\ndef run(): return called()\n",
    }
    bench = "import deplogic as dl\nfrom deplogic.a import LIMIT\nprint(dl.b.run(), LIMIT)\n"
    dead = dead_public_names(modules, [bench])
    assert dead == ["a.py: recursive (line 2)", "a.py: tested (line 3)"]
