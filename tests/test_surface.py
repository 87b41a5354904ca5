"""Less surface: every public name of the package has a use.

A public top-level function or class of ``src/coverkit``, or a public
method of one of its classes, must be referenced by name in the package
itself, in the benchmark (``bench/``) or in ``tests/gen.py``, which the
benchmark imports, or be named in the README's library-layout table.
A name that only tests reach is a test helper and lives under ``tests/``;
a notion of the paper that tests verify gets its README row.  An import
or an ``__all__`` entry is not a use.  Names are matched bare, so a
method that shares its name with a used one passes unseen: the guard
refuses names that nothing uses at all.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(package: Path) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public top-level function or
    class in ``package`` and each public method of those classes."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return out


def referenced_names(paths) -> set[str]:
    """Every name read or written in ``paths``: Name ids and Attribute attrs."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def readme_names(readme: Path) -> set[str]:
    """Every identifier inside backquotes in the table rows of the
    README's "Library layout" section."""
    text = readme.read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return {name for row in rows for quoted in re.findall(r"`([^`]*)`", row)
            for name in re.findall(r"[A-Za-z_]\w*", quoted)}


def unused_public_names(root: Path) -> list[str]:
    """The public names of ``root``'s package with no use and no README row."""
    package = root / "src" / "coverkit"
    used = referenced_names(sorted(package.glob("*.py")))
    used |= referenced_names(sorted((root / "bench").glob("*.py")) + [root / "tests" / "gen.py"])
    used |= readme_names(root / "README.md")
    return [qual for qual, name in public_definitions(package) if name not in used]


def test_every_public_name_has_a_use_or_a_readme_row():
    assert unused_public_names(ROOT) == []


def test_the_guard_sees_a_name_with_no_use(tmp_path):
    package = tmp_path / "src" / "coverkit"
    package.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "__init__.py").write_text("from .mod import dead\n__all__ = ['dead']\n")
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def used(self):\n"
        "        return helper()\n"
        "    def dead_method(self):\n"
        "        return 0\n"
        "    def _private(self):\n"
        "        return 0\n"
        "def helper():\n"
        "    return Thing().used()\n"
        "def dead():\n"
        "    return 0\n"
        "def for_bench():\n"
        "    return 0\n"
        "def for_gen():\n"
        "    return 0\n"
        "def notion():\n"
        "    return 0\n")
    (tmp_path / "bench" / "run.py").write_text("mod.for_bench()\n")
    (tmp_path / "tests" / "gen.py").write_text("from coverkit.mod import for_gen\nfor_gen()\n")
    (tmp_path / "README.md").write_text(
        "# x\n\n## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `coverkit.mod` | `notion(x)`, the paper's notion |\n\n"
        "## Later\n\n`dead`, named outside the table\n")
    assert unused_public_names(tmp_path) == ["mod.Thing.dead_method", "mod.dead"]
