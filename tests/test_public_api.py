"""A ratchet against public API that only its own tests reach.

Every public function, class and method defined in a module of
``src/rdpk3`` must be used somewhere a user of the package or the
benchmark would meet it: as a name or attribute in another part of the
package (the re-export lists of ``__init__.py`` do not count), in the
benchmark's Python files (the tracer's dotted target strings included),
or in the README.  Docstrings that mention a name do not count.  Uses
are matched by bare name, so two definitions that share one (a method
and a function both called ``reduce``) count each other's uses.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rdpk3"


def is_public(name):
    return not name.startswith("_")


def definitions(tree):
    """(name, def node) for public top-level functions, classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and is_public(item.name):
                    yield f"{node.name}.{item.name}", item


def used_names(tree):
    """How often each identifier is read as a Name or an Attribute in tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def offenders():
    """Public definitions used nowhere outside their own body, as module.qualname."""
    modules = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    package_uses = sum((used_names(tree) for tree in modules.values()), Counter())
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= set(used_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                outside |= set(node.value.split("."))
    found = []
    for path, tree in modules.items():
        for qualname, node in definitions(tree):
            name = qualname.rpartition(".")[2]
            if name in outside or package_uses[name] > used_names(node)[name]:
                continue
            found.append(f"{path.stem}.{qualname}")
    return found


def test_every_public_name_is_used_outside_the_tests():
    assert offenders() == []
