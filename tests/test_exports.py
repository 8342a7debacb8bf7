"""Every public name of the package has a production caller."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nvmag"


def test_every_export_has_a_production_caller():
    # the names __init__ imports from the submodules, against every name
    # read as a bare name or an attribute in the other modules; a mention
    # in a docstring or a comment does not count
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = [alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert len(exports) > 30  # the names were found at all
    assert [name for name in exports if name not in used] == []
