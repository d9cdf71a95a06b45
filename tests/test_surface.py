"""The package holds what the program reaches, not what only tests call.

Every top-level function or class of ``src/v2vsim``, and every public method,
must be referenced, as a name or an attribute, somewhere in ``src/``,
``scripts/`` or ``perfbench/`` outside its own definition.  A reference from
inside a package definition that is itself unreferenced does not count, so a
helper that only a test-only fixture calls is caught too.  The benchmark's
own tests (``perfbench/test_*.py``) do not count.  Matching is by bare name,
so a name that something else shares passes; a name nothing mentions fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "v2vsim"

# name -> why it stays although no program code refers to it
ALLOWED = {
    "domain_gap": "the domain-gap measure; scoring it in links.csv is ROADMAP item 3",
    "dft2": "perfbench/layers.py wraps it by a string target; ROADMAP item 2 removes it",
    "idft2": "perfbench/layers.py wraps it by a string target; ROADMAP item 2 removes it",
}


def definitions(tree: ast.Module):
    """(name, node) of each top-level function or class and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item.name, item


def program_files() -> list[Path]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    return sorted(p for p in files if not (p.parent.name == "perfbench"
                                           and p.name.startswith("test_")))


def unreferenced() -> list[str]:
    """``module.name`` of each package definition no live reference reaches."""
    defs = []  # (module, name, path, lines)
    refs = []  # (name, path, line)
    for path in program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.parent == PACKAGE:
            defs += [(path.stem, name, path, range(node.lineno, node.end_lineno + 1))
                     for name, node in definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path, node.lineno))

    def innermost(path, line):
        inside = [d for d in defs if d[2] == path and line in d[3]]
        return min(inside, key=lambda d: len(d[3]), default=None)

    refs = [(name, path, line, innermost(path, line)) for name, path, line in refs]
    dead: set = set()
    while True:
        newly = {d for d in defs if d not in dead and d[1] not in ALLOWED
                 and not any(name == d[1] and not (path == d[2] and line in d[3])
                             and encl not in dead
                             for name, path, line, encl in refs)}
        if not newly:
            return sorted(f"{d[0]}.{d[1]}" for d in dead)
        dead |= newly


def test_every_package_name_has_a_program_caller():
    missing = unreferenced()
    assert missing == [], f"referenced only by tests (move or delete them): {missing}"
