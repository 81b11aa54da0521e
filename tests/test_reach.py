"""Every name in src/ is reached from outside the tests.

A function, class or method of src/gridask stays there only if the CLI,
scripts/, perfbench/ or another src/ function reaches it; code that only
tests use belongs in tests/oracles.py.  A name counts as reached when some
Name, Attribute or import alias in src/gridask or scripts/ spells it, or,
in perfbench/, also a string constant that is not a docstring, because
perfbench/tracing.py patches attributes by name.  Dunder names are called
by Python itself and are not checked.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gridask"

# qualified name -> why nothing in the repo spells a reference to it
EXEMPT = {
    "cli._Parser.error": "argparse calls it on a bad command line",
}


def _trees(directory: Path):
    return [ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))]


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and functions."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _references(tree: ast.AST, strings: bool) -> set[str]:
    docstrings = _docstrings(tree) if strings else set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.add(node.value)
    return names


def _definitions(tree: ast.AST, prefix: str):
    """(qualified name, name) of every function, class and method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node.name
            yield from _definitions(node, f"{prefix}.{node.name}")
        else:
            yield from _definitions(node, prefix)


def test_every_src_name_is_reached_outside_the_tests():
    reached = set()
    for tree in _trees(SRC) + _trees(ROOT / "scripts"):
        reached |= _references(tree, strings=False)
    for tree in _trees(ROOT / "perfbench"):
        reached |= _references(tree, strings=True)
    defined = [definition for path in sorted(SRC.glob("*.py"))
               for definition in _definitions(ast.parse(path.read_text()), path.stem)]
    assert set(EXEMPT) <= {qualified for qualified, _ in defined}
    unreached = [qualified for qualified, name in defined
                 if not (name.startswith("__") and name.endswith("__"))
                 and name not in reached and qualified not in EXEMPT]
    assert not unreached, f"only tests reach {unreached}; move them to tests/oracles.py"


def test_askzeta_names_no_concrete_ring():
    # the census takes every level from Ring.level, so the tower of
    # quotients stays behind gridask.rings
    names = _references(ast.parse((SRC / "askzeta.py").read_text()), strings=True)
    assert not names & {"PadicQuotient", "ExtField"}
