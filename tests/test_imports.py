"""Every name a ``src/`` module imports is used in that module.

The check parses each module with :mod:`ast`: an imported name counts as
used when the module reads it (as a name, or as the root of an attribute
chain), lists it in ``__all__`` or mentions it in a quoted annotation.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Each name the module's imports bind, with the line binding it."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module) -> List[ast.expr]:
    found: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs
                        + [arguments.vararg, arguments.kwarg]):
                if arg is not None and arg.annotation is not None:
                    found.append(arg.annotation)
            if node.returns is not None:
                found.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            found.append(node.annotation)
    return found


def _used(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__" for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {item.value for item in node.value.elts
                     if isinstance(item, ast.Constant)}
    return used


def unused_imports(source: str) -> List[str]:
    """The imported names ``source`` never uses, as ``name (line n)``."""
    tree = ast.parse(source)
    used = _used(tree)
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(_imported(tree).items())
            if name not in used]


def test_the_check_sees_every_kind_of_use():
    source = (
        "import os\n"
        "import os.path as p\n"
        "from typing import Dict, List, Optional, Set\n"
        "from .x import shown, hidden\n"
        "__all__ = ['shown']\n"
        "def f(a: 'Optional[Dict]') -> Set:\n"
        "    return os.sep\n")
    assert unused_imports(source) == ["List (line 3)", "hidden (line 4)",
                                      "p (line 2)"]


def test_src_modules_use_every_import():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            unused[str(path.relative_to(SRC))] = names
    assert unused == {}
