"""Every module-level function and class of the library is named somewhere in
the library outside its own definition: one that nothing names is dead code.
The scan goes by name, so a dead definition that shares its name with a live
one, or with an attribute, is not seen."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sovlab"

#: bound only by the benchmark's tracer, whose layer reads 0 calls (ROADMAP item 8)
ALLOWED = {("gl2_model", "gl2_transfer")}


def _is_command(node):
    """A click command or group, which its decorator registers."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _names(node):
    """Every name that ``node`` reads, as a name, an attribute or an import."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            | {sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias)})


def unreferenced(sources):
    """``(module, name)`` of every module-level function or class of
    ``sources`` (``{module: source}``) that no top-level statement of any
    module names, its own definition left out; click commands are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [(top, _names(top)) for tree in trees.values() for top in tree.body]
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_command(node)
            and not any(node.name in names for top, names in statements if top is not node)]


def test_every_library_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert len(sources) > 10
    assert set(unreferenced(sources)) == ALLOWED


def test_the_scan_sees_an_unreferenced_definition():
    library = ("def used():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
               "def recursive():\n    return recursive()\n\n\nclass Unused:\n    pass\n\n\n"
               "@main.command()\ndef verify():\n    pass\n")
    sources = {"a": library, "b": "from .a import used\n"}
    assert unreferenced(sources) == [("a", "recursive"), ("a", "Unused")]
