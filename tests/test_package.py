"""The package's public names have one source: each library module's
__all__, which lists what that module defines, and which `ranksmooth`
re-exports whole."""

import ast
import importlib
import inspect

import ranksmooth

LIBRARY = ("baselines", "data", "encoder", "experiments", "linalg", "ranking", "smoothap")


def _imported(module):
    """The names that module's top-level imports bind."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.parse(inspect.getsource(module)).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_each_public_name_is_listed_once_where_defined_and_exported():
    owners, problems = {}, []
    for name in LIBRARY:
        module = importlib.import_module(f"ranksmooth.{name}")
        if not hasattr(module, "__all__"):
            problems.append(f"{name} has no __all__")
        for public in getattr(module, "__all__", ()):
            if not hasattr(module, public) or public in _imported(module):
                problems.append(f"{name}.{public} is not defined there")
            if owners.setdefault(public, name) != name:
                problems.append(f"{public} is listed by {owners[public]} and {name}")
            if getattr(ranksmooth, public, None) is not getattr(module, public, None):
                problems.append(f"ranksmooth does not export {name}.{public}")
    assert problems == []
