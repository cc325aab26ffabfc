"""Import and call boundaries: the runtime package imports nothing outside
the standard library, the oracles share no solver internals, and one
index-level rule compares two objects."""

import ast
import pathlib
import sys

import popassign

PACKAGE = pathlib.Path(popassign.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_oracles_are_independent_of_the_solvers():
    """From the level solver the oracles take only the certificate type;
    nothing from the constrained, k-margin or reduction solvers,
    and no private name of any package module."""
    imported: dict[str, set[str]] = {}
    for node in ast.walk(_tree(PACKAGE / "oracle.py")):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("popassign"), alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                assert not module.startswith("popassign"), module
                continue
            for alias in node.names:
                if module:
                    imported.setdefault(module, set()).add(alias.name)
                else:  # from . import module
                    imported.setdefault(alias.name, set()).add("*")
    assert imported["popular"] == {"DualCertificate"}
    assert not {"variants", "reductions"} & imported.keys()
    private = [n for names in imported.values() for n in names if n.startswith("_")]
    assert not private


def test_one_index_rule_compares_two_objects():
    """``Instance.vote`` is the one comparison rule: ``prefers``,
    ``compare`` and the oracles' ``_vote`` resolve names and call it,
    ``_vote_rows`` calls it on indices, and nothing in the package calls the
    name-level ``prefers`` or ``compare``."""
    users: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr in ("vote", "prefers"):
                    users.setdefault(node.attr, set()).add(fn.name)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "compare":
                    users.setdefault("compare", set()).add(fn.name)
    assert users == {"vote": {"prefers", "compare", "_vote", "_vote_rows"}}
