"""No module of the library, the tests or the tools imports a name it never
reads.  ``sovlab/__init__.py`` re-exports its imports and is left out."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """``(line, name)`` of every name that a top-level import of ``source``
    binds and no ``Name`` node reads (an attribute chain ``a.b`` reads ``a``)."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in bound.items() if name not in read]


def test_no_unused_top_level_imports():
    paths = [path for pattern in ("src/sovlab/*.py", "tests/*.py", "tools/*.py")
             for path in sorted(ROOT.glob(pattern))
             if path != ROOT / "src" / "sovlab" / "__init__.py"]
    assert len(paths) > 20
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in paths for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport numpy as np\nimport a.b\nfrom c import d, e as f\nnp.zeros(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a"), (4, "f")]
