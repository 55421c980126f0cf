"""Every public name of the package has a reader inside the package, or is
one of the test oracles named here; so has every public function and class
defined at the top of a module, and every private module-level function."""

import ast
import pathlib

import traintrack

SRC = pathlib.Path(traintrack.__file__).parent

# Exported for the tests and the acceptance gates, which check the paper's
# claims with them; nothing in the package calls them.
TEST_ORACLES = {
    "identity_map",
    "differ_by_inner",
    "verify_homotopy_equivalence",
    "verify_nielsen_preserved",
    "check_fa_is_ct",
    "find_tuple_representing",
    "is_generic",
    "split_twist_vertex",
}

# Public module-level definitions that are not exported and that nothing in
# the package calls, each with the reason it stays.
MODULE_ORACLES = {
    # exact rational determinant: the acceptance gates and the freegroup
    # tests check that abelianization matrices are unimodular with it
    "intlin.det",
    # a sample pair in one outer class apart by an inner automorphism, read
    # by the acceptance gates and the tests of differ_by_inner and the audit
    "samples.inner_twist_pair",
}


def _definitions():
    """(module stem, top-level node) of every module but ``__init__.py``."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for top in ast.parse(path.read_text(), str(path)).body:
                yield path.stem, top


def _names_read():
    """The names each module reads outside the top-level definition that
    binds them: bare names, and attributes of the sibling modules it imports
    (``from . import intlin``).  ``__init__.py``, which only re-exports, is
    left out."""
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names
        }
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
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
