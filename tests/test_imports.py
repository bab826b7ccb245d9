"""Every imported name is used, and every private module-level name of the package is
read in the package: two AST scans, since no linter ships."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [p for p in (ROOT / "src" / "levisqueeze").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read elsewhere in the module."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


PACKAGE = sorted((ROOT / "src" / "levisqueeze").glob("*.py"))


def private_definitions(source: str) -> dict[str, int]:
    """Module-level functions, classes and constants named _name, not dunders, by line."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes and names imported from elsewhere."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of the given modules that none of them reads."""
    read = set().union(*(read_names(source) for source in sources.values()))
    return sorted(
        f"{path}: {name} (line {line})"
        for path, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    )


def test_the_scan_finds_a_dead_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_spare: int = 4\ndef _used(): return _LIMIT\nclass _Gone: pass\n",
        "b.py": "from a import _used\n__all__ = []\n_used()\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _Gone (line 4)",
        "a.py: _spare (line 2)",
    ]


def test_every_private_name_of_the_package_is_read_in_the_package():
    # Tests do not count: a private helper that only tests read is dead code.
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert sum(len(private_definitions(s)) for s in sources.values()) > 50
    assert dead_private_names(sources) == []
