"""A ratchet against public API that only its own tests reach.

Every public function, class and method defined in a module of
``src/rdpk3`` must be used somewhere a user of the package or the
benchmark would meet it: in another part of the package (the re-export
lists of ``__init__.py`` do not count), in the benchmark's Python files
(through the ``rdpk3`` module object, or as one of the tracer's dotted
target strings), or in the README.  Docstrings that mention a name do
not count.

A use counts for a definition only where its site allows it, so that a
dead definition cannot hide behind a namesake (``DiscForm.reduce``
behind the function ``localcoh.reduce``):

* a bare name (``reduce(x)``, an undotted string) is a top-level
  function or class;
* an attribute on ``self``, ``cls`` or a package class
  (``self.reduce``, ``DiscForm.reduce``, the string
  ``"DiscForm.reduce"``) is the method that class finds first along its
  package bases;
* any other attribute (``x.reduce``, ``module.reduce``) may be any
  definition of that name, so it counts only for a name defined once;
* in the README, a name defined once counts by its bare word, and a
  name defined more than once only as ``Owner.name``.

A definition whose name is shared and that only such unshown receivers
reach is listed in ``DISPATCHED`` with the package function whose call
reaches it; that function must still make an attribute call of the name.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rdpk3"
ANY = None  # owner of an attribute whose receiver the site does not show
TOP = ""  # owner of a bare name
PACKAGE_OBJECT = object()  # what a benchmark name bound to the package module maps to

# Shared-name definitions reached only through a receiver the site does
# not show: definition -> the package function (module.qualname) whose
# attribute call reaches it, and on what.
DISPATCHED = {
    "ffpoly.SparseTerms.ring_zero": "reproduce.check_witt_identities",  # on polynomial generators
    "ffpoly.SparseTerms.is_zero": "localcoh.CohClass.is_zero",  # on chart elements
    "localcoh.CohClass.is_zero": "localcoh.is_torsion",  # on scalar_mul_class results
    "height.HeightValue.as_json": "cli.cmd_height_count",  # on height_from_counts results
    "reproduce.CheckRecord.as_json": "reproduce.RunReport.as_json",  # on its records
    "reproduce.RunReport.as_json": "cli.cmd_reproduce",  # on the reproduce_all result
}


def is_public(name):
    return not name.startswith("_")


def definitions(tree):
    """(owner, name, def node) for public top-level functions, classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_public(node.name):
            yield TOP, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and is_public(item.name):
                    yield node.name, item.name, item


def class_table(trees):
    """{class name: (base class names, names defined in its body)} over the package."""
    table = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases = [b.id for b in node.bases if isinstance(b, ast.Name)]
                own = {
                    item.name
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                table[node.name] = (bases, own)
    return table


def resolve(classes, cls, name):
    """The package class whose method cls.name finds first, or None."""
    todo = [cls]
    while todo:
        c = todo.pop(0)
        if c not in classes:
            continue
        bases, own = classes[c]
        if name in own:
            return c
        todo.extend(bases)
    return None


def from_package(node, known):
    """Whether an expression is rooted in the package's module object.

    That is ``rdpk3``, ``self.rdpk3``, an attribute of either, or a name
    bound to one of these (``trials = self.rdpk3.reproduce``).
    """
    while isinstance(node, ast.Attribute):
        if node.attr == "rdpk3":
            return True
        node = node.value
    return isinstance(node, ast.Name) and (node.id == "rdpk3" or known.get(node.id) is PACKAGE_OBJECT)


def used_names(tree, classes, bench=False):
    """How often each (owner, name) is read in tree; owner TOP, ANY or a class name.

    With bench, tree is one of the benchmark's files, which reach the
    package only through its module object: an attribute counts only on
    a receiver from_package accepts (so ``args.trace`` is no use of
    ``FiniteField.trace``), a bare name not at all, and a string
    constant that names a definition (the tracer's dotted targets) is a
    use.  A word in a package string is no use.
    """
    out = Counter()

    def visit(node, known):
        if isinstance(node, ast.ClassDef):
            known = {**known, "self": node.name, "cls": node.name}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            known = dict(known)
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                ann = arg.annotation
                name = ann.id if isinstance(ann, ast.Name) else getattr(ann, "value", None)
                if name in classes:
                    known[arg.arg] = name
        elif isinstance(node, ast.Assign) and from_package(node.value, known):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    known[target.id] = PACKAGE_OBJECT
        if isinstance(node, ast.Name) and not bench:
            out[TOP, node.id] += 1
        elif isinstance(node, ast.Attribute) and (not bench or from_package(node.value, known)):
            recv = node.value.id if isinstance(node.value, ast.Name) else None
            recv = known.get(recv, recv)
            owner = resolve(classes, recv, node.attr) if recv in classes else ANY
            out[owner or ANY, node.attr] += 1
        elif bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
            head, _, tail = node.value.rpartition(".")
            if head in classes:
                out[resolve(classes, head, tail) or ANY, tail] += 1
            elif head == "" and tail.isidentifier():
                out[TOP, tail] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, known)

    visit(tree, {})
    return out


def counts_for(uses, owner, name, shared=False):
    return uses[owner, name] + (0 if shared else uses[ANY, name])


def qualname_nodes(modules):
    """{module.qualname: def node} for every top-level definition and method."""
    out = {}
    for path, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[f"{path.stem}.{node.name}.{item.name}"] = item
    return out


def offenders(modules, bench_trees, readme):
    """Public definitions of modules ({path: tree}) used nowhere outside their own body.

    Uses are read from the other modules, the benchmark's trees
    (strings included) and the README text; the result is module.qualname.
    """
    classes = class_table(modules.values())
    package_uses = Counter()
    for tree in modules.values():
        package_uses.update(used_names(tree, classes))
    bench_uses = Counter()
    for tree in bench_trees:
        bench_uses.update(used_names(tree, classes, bench=True))
    defined = Counter(
        name for tree in modules.values() for _owner, name, _node in definitions(tree)
    )
    readme_words = set(re.findall(r"\w+", readme))
    readme_qualified = set(re.findall(r"(\w+)\.(\w+)", readme))
    nodes = qualname_nodes(modules)
    found = []
    for path, tree in modules.items():
        for owner, name, node in definitions(tree):
            qualname = f"{path.stem}.{owner + '.' if owner else ''}{name}"
            shared = defined[name] > 1
            if not shared and name in readme_words:
                continue
            if (owner, name) in readme_qualified or counts_for(bench_uses, owner, name, shared):
                continue
            inside = counts_for(used_names(node, classes), owner, name, shared)
            if counts_for(package_uses, owner, name, shared) > inside:
                continue
            site = nodes.get(DISPATCHED.get(qualname))
            if shared and site is not None and used_names(site, classes)[ANY, name]:
                continue
            found.append(qualname)
    return found


def test_every_public_name_is_used_outside_the_tests():
    modules = {
        path: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert offenders(modules, bench, (ROOT / "README.md").read_text()) == []


def test_a_package_string_is_no_use_of_a_function():
    modules = {
        pathlib.Path("m.py"): ast.parse(
            "def finite():\n"
            "    return 1\n"
            "def kind(v):\n"
            "    return 'finite' if v else 'm.finite'\n"
        )
    }
    assert offenders(modules, [], "") == ["m.finite", "m.kind"]
    # a benchmark string names a tracer target, which is a use
    assert offenders(modules, [ast.parse("TARGET = 'finite'")], "") == ["m.kind"]


def test_a_benchmark_attribute_counts_only_on_a_package_receiver():
    modules = {
        pathlib.Path("m.py"): ast.parse(
            "class Field:\n"
            "    def trace(self):\n"
            "        return 0\n"
            "    def norm(self):\n"
            "        return 1\n"
            "    def size(self):\n"
            "        return 2\n"
            "def count():\n"
            "    return 3\n"
        )
    }
    bench = ast.parse(
        "class Load:\n"
        "    def __init__(self, rdpk3):\n"
        "        self.rdpk3 = rdpk3\n"
        "    def run(self, args):\n"
        "        field = self.rdpk3.m.Field\n"
        "        count = args.count\n"
        "        return args.trace, self.rdpk3.norm, field.size, count\n"
    )
    # args is a namespace of the benchmark's own, and count a local name
    assert offenders(modules, [bench], "") == ["m.Field.trace", "m.count"]


def test_every_dispatched_definition_exists():
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    nodes = qualname_nodes(modules)
    assert [d for d in DISPATCHED.items() if not set(d) <= set(nodes)] == []


def test_a_method_does_not_hide_behind_a_function_of_its_name():
    tree = ast.parse(
        "class Box:\n"
        "    def reduce(self):\n"
        "        return self.reduce()\n"
        "    def size(self):\n"
        "        return 1\n"
        "def reduce(x):\n"
        "    return x\n"
        "def use(b):\n"
        "    return reduce(b) + Box.size(b) + b.other\n"
    )
    classes = class_table([tree])
    uses = used_names(tree, classes)
    assert counts_for(uses, TOP, "reduce") == 1
    assert counts_for(uses, "Box", "reduce") == 1  # only its own recursive call
    assert counts_for(uses, "Box", "size") == 1
    assert counts_for(uses, "Box", "other") == 1  # unknown receivers may be anything
    assert counts_for(uses, "Box", "other", shared=True) == 0
