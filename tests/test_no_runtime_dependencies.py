"""fubinipoly has no runtime dependencies: every absolute import in the
package names a module of the standard library."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fubinipoly"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_absolute_import_is_from_the_standard_library():
    imported = {(path.name, name) for path in PACKAGE.glob("*.py") for name in _absolute_imports(path)}
    assert imported, "no module of the package was parsed"
    outside = sorted((file, name) for file, name in imported
                     if name != "__future__" and name not in sys.stdlib_module_names)
    assert outside == []
