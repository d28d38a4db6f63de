"""``src/`` keeps only what the program uses.

Every public top-level function and class of ``src/mbaloha/*.py`` (but
``__init__``), and every public method and annotated field of each class,
must appear as a word somewhere in ``src/`` besides its own definition, or
in ``scripts/`` or ``perfbench/``.  A name that only tests read belongs in
``tests/``.  The few exceptions are listed with their reasons.
"""

import ast
import re
from collections import Counter

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "mbaloha"

ALLOWED = {
    "per_iteration_collected": "the only public view of the users each peeling round delivers",
    "dump_instance": "writes the instance format that parse_instance reads",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions() -> list[tuple[str, str]]:
    """(module, qualified name) of every scanned definition."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _public(node.name):
                found.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        name = member.name
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        name = member.target.id
                    else:
                        continue
                    if _public(name):
                        found.append((path.stem, f"{node.name}.{name}"))
    return found


def _words(paths) -> Counter:
    counts = Counter()
    for path in paths:
        counts.update(re.findall(r"\w+", path.read_text()))
    return counts


def _unused() -> list[str]:
    definitions = _definitions()
    src_words = _words(SRC.glob("*.py"))
    other_words = _words([*(REPO_ROOT / "scripts").glob("*.py"), *(REPO_ROOT / "perfbench").glob("*.py")])
    defined = Counter(qualname.rpartition(".")[2] for _, qualname in definitions)
    unused = []
    for module, qualname in definitions:
        name = qualname.rpartition(".")[2]
        if src_words[name] <= defined[name] and not other_words[name]:
            unused.append(f"{module}.{qualname}")
    return unused


def test_every_public_name_has_a_program_caller():
    unused = [name for name in _unused() if name.rpartition(".")[2] not in ALLOWED]
    assert unused == [], f"public names only tests read; move them to tests/: {unused}"


def test_allowlist_is_current():
    # An allowed name that gained a caller, or no longer exists, leaves the list.
    flagged = {name.rpartition(".")[2] for name in _unused()}
    assert flagged >= set(ALLOWED)


def test_package_root_holds_only_version():
    tree = ast.parse((SRC / "__init__.py").read_text())
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert len(rest) == 1 and isinstance(rest[0], ast.Assign)
    assert [target.id for target in rest[0].targets] == ["__version__"]
