"""Every exception of the library ends a CLI run in an exit code.

An exception that `gridask.cli.run` does not catch ends the run in a
traceback, and a traceback exits 1, which is the code of a verification
mismatch.  So each exception class defined in src/gridask must derive from
a class that `run` catches (exit 3 for an input error, 4 for a budget).
"""
import ast
import importlib
import inspect
from pathlib import Path

from gridask import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "gridask"


def _caught_by_run() -> tuple[type, ...]:
    """The classes named in the except clauses of cli.run."""
    tree = ast.parse(inspect.getsource(cli.run))
    caught = []
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler):
            names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            caught += [eval(ast.unparse(name), vars(cli)) for name in names]
    return tuple(caught)


def test_every_library_exception_is_caught_by_the_cli():
    caught = _caught_by_run()
    assert caught
    modules = [importlib.import_module(f"gridask.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem != "__main__"]
    defined = [cls for module in modules for cls in vars(module).values()
               if inspect.isclass(cls) and issubclass(cls, BaseException)
               and cls.__module__ == module.__name__]
    assert defined
    uncaught = [f"{cls.__module__}.{cls.__qualname__}" for cls in defined
                if not issubclass(cls, caught)]
    assert not uncaught, f"cli.run lets {uncaught} end in a traceback"
