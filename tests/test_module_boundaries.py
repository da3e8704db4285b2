"""Module boundaries of the package: no module imports another's private name."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scatjet"


def test_no_module_imports_a_private_name_of_another():
    """A ``_``-prefixed name stays inside its module: each caller uses a public one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "scatjet":
                continue
            source = "." * node.level + (node.module or "")
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {source}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert SRC.is_dir() and not found, found
