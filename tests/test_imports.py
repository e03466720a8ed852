"""Every module of the package uses each name it imports, every private
name the package defines is used somewhere in it, and so is every public
module-level function that is neither exported nor a benchmark span
target.

Stdlib stand-ins for a linter's unused-import and dead-code rules: the
import check leaves __init__.py out, since its imports are the package's
public names.
"""

import ast
import importlib.util
import pathlib

import pytest

import apolarkit

PACKAGE = pathlib.Path(apolarkit.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def unused_imports(source):
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
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\n"
                          "print(os.sep, gcd)\n") == [(2, "lcm")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def _private_definitions(tree):
    """(name, node) for each private, non-dunder name defined at the top
    level of a module or of one of its classes."""
    scopes = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    for node in (node for body in scopes for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _public_functions(tree):
    """(name, node) for each public function defined at the top level of
    a module."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def unread_definitions(sources, definitions, exempt=()):
    """(source index, name, line) of each name that definitions(tree)
    yields for one of the sources, is not in exempt, and is never read
    outside its own definition: as a name or as an attribute, in any of
    the sources."""
    trees = [ast.parse(source) for source in sources]
    reads = [(node.id, node) if isinstance(node, ast.Name) else (node.attr, node)
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) or isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)]
    unread = []
    for k, tree in enumerate(trees):
        for name, node in definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if name not in exempt and not any(
                    read == name and id(n) not in inside for read, n in reads):
                unread.append((k, name, node.lineno))
    return unread


def span_target_functions():
    """Module-level functions named in perfbench/spans.py TARGETS."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {path for _, _, path in module.TARGETS if "." not in path}


def test_the_check_sees_an_unreferenced_private_name():
    sources = [
        "_USED = 1\n_LEFT = 2\n\n"
        "def _shifts(n):\n    return _shifts(n - 1)\n\n"
        "class A:\n    def _scale(self):\n        return _USED\n",
        "from m import A\nA()._scale()\n",
    ]
    assert unread_definitions(sources, _private_definitions) \
        == [(0, "_LEFT", 2), (0, "_shifts", 4)]


def test_package_reads_every_private_name_it_defines():
    paths = sorted(PACKAGE.glob("*.py"))
    unread = unread_definitions([p.read_text() for p in paths],
                                _private_definitions)
    assert [(paths[k].name, name, line) for k, name, line in unread] == []


def test_the_check_sees_an_unread_public_function():
    sources = ["def used():\n    return used()\n\n"
               "def exported():\n    pass\n\n"
               "def left(n):\n    return left(n - 1)\n",
               "from m import used\nused()\n"]
    assert unread_definitions(sources, _public_functions, {"exported"}) \
        == [(0, "left", 7)]


def test_package_reads_every_public_function_it_defines():
    # a public function is read in the package, exported by __init__, or
    # a benchmark span target; anything else only its own tests call
    paths = sorted(PACKAGE.glob("*.py"))
    exempt = set(apolarkit.__all__) | span_target_functions()
    unread = unread_definitions([p.read_text() for p in paths],
                                _public_functions, exempt)
    assert [(paths[k].name, name, line) for k, name, line in unread] == []
