"""The runtime package imports nothing outside the standard library."""

import ast
import pathlib
import sys

import popassign


def test_package_imports_only_the_standard_library():
    package = pathlib.Path(popassign.__file__).parent
    files = sorted(package.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
