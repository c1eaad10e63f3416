"""The test oracles stay independent of the library they check."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def imported_modules(source: str) -> set[str]:
    """Top-level names of every module the source imports; "." for a relative import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." if node.level else node.module.split(".")[0])
    return names


def test_oracles_import_no_library_code():
    # Agreement with an oracle is evidence only while the two share no code:
    # oracles.py imports neither flmrac nor a test module that may import it.
    local = {path.stem for path in TESTS.glob("*.py")}
    shared = imported_modules((TESTS / "oracles.py").read_text()) & (local | {"flmrac", "."})
    assert not shared, f"tests/oracles.py imports {sorted(shared)}"

