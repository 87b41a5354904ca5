"""Less surface: every public name of the package has a use.

A public top-level function or class of ``src/coverkit``, or a public
method of one of its classes, must be used in the package itself, in the
benchmark (``bench/``) or in ``tests/gen.py``, which the benchmark
imports, or be named in the README's library-layout table.  A name that
only tests reach is a test helper and lives under ``tests/``; a notion of
the paper that tests verify gets its README row.  An import or an
``__all__`` entry is not a use.

A top-level name is resolved through imports.  It is used where it is
read as a Name in its own module, or in a module that imports it
(``from .mod import f``, ``from coverkit.mod import f``, or a re-export
through ``coverkit/__init__``), or as an attribute of an imported module
(``from . import mod; mod.f``).  So a homonym defined in ``bench/`` is no
use of the package's name.  Method names are matched bare, so a method
that shares its name with a used one passes unseen: the guard refuses
methods that nothing uses at all.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "coverkit"
INIT = "__init__"


def _public(name: str) -> bool:
    return not name.startswith("_")


def public_definitions(package: Path) -> list[tuple[str, str, bool]]:
    """(qualified name, bare name, is a method) of each public top-level
    function or class in ``package`` and each public method of those
    classes."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.append((f"{path.stem}.{node.name}", node.name, False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{path.stem}.{node.name}.{m.name}", m.name, True) for m in node.body
                        if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return out


class Imports:
    """What one file binds by importing from the package: ``names`` maps
    a local name to the (module, name) it imports, ``modules`` a local
    name to the package module it is bound to (``__init__`` for the
    package itself).  Modules are named by file stem."""

    def __init__(self, tree: ast.AST, stems: set[str]):
        self.names, self.modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    head, _, rest = alias.name.partition(".")
                    if head != PACKAGE:
                        continue
                    if alias.asname:
                        self.modules[alias.asname] = rest or INIT
                    else:
                        self.modules[head] = INIT
            elif isinstance(node, ast.ImportFrom):
                source = self._source(node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if source == INIT and alias.name in stems:
                        self.modules[local] = alias.name
                    elif source is not None:
                        self.names[local] = (source, alias.name)

    @staticmethod
    def _source(node: ast.ImportFrom):
        """The package module an import reads from, or None outside it."""
        if node.level:
            return node.module or INIT
        if node.module == PACKAGE:
            return INIT
        if node.module and node.module.startswith(PACKAGE + "."):
            return node.module.split(".", 1)[1]
        return None

    def module_of(self, node: ast.AST):
        """The package module an expression names, or None."""
        if isinstance(node, ast.Name):
            return self.modules.get(node.id)
        if isinstance(node, ast.Attribute) and self.module_of(node.value) == INIT:
            return node.attr
        return None


def used_definitions(paths, package_stems: dict[Path, str]) -> set:
    """Every (module, name) of the package that ``paths`` read, each
    resolved through imports and re-exports to its defining module;
    ``package_stems`` names the package's own files."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    stems = set(package_stems.values())
    imports = {path: Imports(tree, stems) for path, tree in trees.items()}
    reexports = {package_stems[p]: imports[p].names for p in imports if p in package_stems}

    def defining(ref):
        for _ in range(len(reexports) + 1):
            nxt = reexports.get(ref[0], {}).get(ref[1])
            if nxt is None:
                return ref
            ref = nxt
        return ref

    used = set()
    for path, tree in trees.items():
        own, imp = package_stems.get(path), imports[path]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ref = imp.names.get(node.id) or (own and (own, node.id))
            elif isinstance(node, ast.Attribute):
                module = imp.module_of(node.value)
                ref = module and (module, node.attr)
            else:
                continue
            if ref:
                used.add(defining(ref))
    return used


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
    package = root / "src" / PACKAGE
    own = sorted(package.glob("*.py"))
    paths = own + sorted((root / "bench").glob("*.py")) + [root / "tests" / "gen.py"]
    package_stems = {path: path.stem for path in own}
    used = used_definitions(paths, package_stems)
    bare = referenced_names(paths)
    readme = readme_names(root / "README.md")
    return [qual for qual, name, method in public_definitions(package)
            if name not in readme
            and not (name in bare if method else (qual.split(".")[0], name) in used)]


def test_every_public_name_has_a_use_or_a_readme_row():
    assert unused_public_names(ROOT) == []


def test_the_guard_sees_a_name_with_no_use(tmp_path):
    package = tmp_path / "src" / "coverkit"
    package.mkdir(parents=True)
    (tmp_path / "bench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "__init__.py").write_text(
        "from .mod import dead, reexported\n__all__ = ['dead', 'reexported']\n")
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
        "    return 0\n"
        "def shadowed():\n"
        "    return 0\n"
        "def through_alias():\n"
        "    return 0\n"
        "def reexported():\n"
        "    return 0\n")
    # a call through a module alias inside the package is a use
    (package / "other.py").write_text("from . import mod\nmod.through_alias()\n")
    (tmp_path / "bench" / "run.py").write_text(
        "from coverkit import mod, reexported\nmod.for_bench()\nreexported()\n")
    # a homonym in bench/ is no use of the package's function
    (tmp_path / "bench" / "workloads.py").write_text(
        "def shadowed():\n    return 1\nshadowed()\n")
    (tmp_path / "tests" / "gen.py").write_text("from coverkit.mod import for_gen\nfor_gen()\n")
    (tmp_path / "README.md").write_text(
        "# x\n\n## Library layout\n\n| module | contents |\n|---|---|\n"
        "| `coverkit.mod` | `notion(x)`, the paper's notion |\n\n"
        "## Later\n\n`dead`, named outside the table\n")
    assert unused_public_names(tmp_path) == [
        "mod.Thing.dead_method", "mod.dead", "mod.shadowed"]
