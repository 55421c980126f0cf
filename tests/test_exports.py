"""Every public name of the package has a reader inside the package, or is
one of the test oracles named here."""

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
