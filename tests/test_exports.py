"""Every public name of the package has a reader inside the package, or is
one of the test oracles named here; so has every public function and class
defined at the top of a module, every private module-level function, every
module-level assignment, every method and property, every attribute a class
stores on ``self``, every field of a namedtuple, and every imported name."""

import ast
import pathlib

import traintrack

SRC = pathlib.Path(traintrack.__file__).parent

# Exported, and nothing in the package calls them, each with the reason it
# stays.  The checks of f_a and of outer classes that only the tests read
# live in tests/oracles.py.
TEST_ORACLES = {
    # demos/maximal_rank_tour.py shows the vertex-splitting surgery with it
    "split_twist_vertex",
}

# Public module-level definitions that are not exported and that nothing in
# the package calls, each with the reason it stays.
MODULE_ORACLES = set()

# Methods and properties that nothing in the package reads, each with the
# reason it stays.
METHOD_ORACLES = {
    # demos/disintegration_walkthrough.py shows with it that f_(2,2) = f o f
    "maps.GraphMap.edges_equal",
}

# Attributes stored on ``self`` that nothing in the package reads, each with
# the reason it stays.
ATTRIBUTE_ORACLES = {
    # the evidence behind each clause verdict (counts of principal vertices,
    # attaching vertices, split images, ...), kept for the reports to print
    "ct.Clause.witnesses",
    # the exact Sturm bracket that certifies the rounded eigenvalue
    "coords.Expansion.bracket",
    # the full or partial FPS over a stage, which tags its case (a) or (b)
    "maxrank.StageRecord.witness",
}


def _modules():
    """(module stem, parsed tree) of every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _definitions():
    """(module stem, top-level node) of every module but ``__init__.py``."""
    for stem, tree in _modules():
        if stem != "__init__":
            for top in tree.body:
                yield stem, top


def _names_read():
    """The names each module reads outside the top-level definition that
    binds them: bare names, and attributes of the sibling modules it imports
    (``from . import intlin``).  ``__init__.py``, which only re-exports, is
    left out."""
    read = set()
    for stem, tree in _modules():
        if stem == "__init__":
            continue
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names
        }
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    name = node.attr
                else:
                    continue
                if name != own:
                    read.add(name)
    return read


def test_every_export_has_a_reader_or_is_a_named_oracle():
    read = _names_read()
    unread = {name for name in traintrack.__all__ if name not in read}
    assert unread == TEST_ORACLES


def test_the_oracles_are_exported():
    assert TEST_ORACLES <= set(traintrack.__all__)


def test_every_public_definition_has_a_reader_or_is_a_named_oracle():
    read = _names_read()
    unread = {
        "%s.%s" % (stem, top.name)
        for stem, top in _definitions()
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not top.name.startswith("_")
        and top.name not in read
        and top.name not in TEST_ORACLES
    }
    assert unread == MODULE_ORACLES


def test_every_private_function_has_a_reader():
    # a private helper whose last caller went is dead code, even when a test
    # still calls it
    read = _names_read()
    unread = {
        "%s.%s" % (stem, top.name)
        for stem, top in _definitions()
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
        and top.name.startswith("_") and not top.name.startswith("__")
        and top.name not in read
    }
    assert unread == set()


def test_every_module_level_assignment_has_a_reader():
    # a table or constant that nothing reads is dead, and it keeps alive
    # every name it reads (the built-in samples once did)
    unread = set()
    for stem, top in _definitions():
        if isinstance(top, ast.Assign):
            targets = top.targets
        elif isinstance(top, ast.AnnAssign):
            targets = [top.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and not node.id.startswith("__"):
                    unread.add("%s.%s" % (stem, node.id))
    assert {name for name in unread if name.split(".")[1] not in _names_read()} == set()


def test_every_method_has_a_reader():
    # a method or property counts as read when some ``.name`` attribute of
    # the package, outside its own body, has its name; names alone are
    # matched, so a namesake elsewhere can hide a dead member, never flag a
    # live one
    reads = [
        (stem, node.lineno, node.attr)
        for stem, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    ]
    unread = set()
    for stem, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                if not any(
                    attr == fn.name
                    and not (where == stem and fn.lineno <= line <= fn.end_lineno)
                    for where, line, attr in reads
                ):
                    unread.add("%s.%s.%s" % (stem, cls.name, fn.name))
    assert unread == METHOD_ORACLES


def test_every_stored_attribute_has_a_reader():
    # an attribute counts as read when some ``.name`` of the package loads
    # it; names alone are matched, as for methods
    loads = {
        node.attr
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = set()
    for stem, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"
                        and node.attr not in loads):
                    unread.add("%s.%s.%s" % (stem, cls.name, node.attr))
    assert unread == ATTRIBUTE_ORACLES


def test_every_namedtuple_field_has_a_reader():
    # a field counts as read when some ``.name`` of the package loads it;
    # names alone are matched, as for methods
    fields = {}
    for stem, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "namedtuple"
                    and isinstance(node.args[1], ast.Constant)):
                for field in node.args[1].value.replace(",", " ").split():
                    fields["%s.%s.%s" % (stem, node.args[0].value, field)] = field
    assert {"maps.Stratum.kind", "nielsen.LinearEdge.d", "nielsen.LinearIndex.fault"} <= set(fields)
    loads = {
        node.attr
        for _, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert {name for name, field in fields.items() if field not in loads} == set()


def test_every_import_is_read():
    # ``__init__.py`` only re-exports, so it reads none of its imports
    unread = set()
    for stem, tree in _modules():
        if stem == "__init__":
            continue
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in names:
                        unread.add("%s: %s" % (stem, name))
    assert unread == set()
