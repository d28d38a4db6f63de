"""The exact references that the tests share with the benchmark stay apart
from the package they check.

``conftest.references`` is ``perfbench/references.py``.  A reference that
calls ``build_adjacency`` or ``_peel`` would agree with the program whatever
the program computes, so the module may import nothing from ``mbaloha``.
"""

import ast

from conftest import REPO_ROOT, references


def test_references_import_nothing_from_the_package():
    path = REPO_ROOT / "perfbench" / "references.py"
    assert references.__file__ == str(path)
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert "numpy" in imported
    assert [name for name in imported if name.partition(".")[0] == "mbaloha"] == []
