"""One error rule: every failure the library raises on purpose is a
VsslabError, itself a ValueError, so the CLI's `except VsslabError` and the
audit catch all of them."""

import ast
from pathlib import Path

from vsslab import errors

SRC = Path(__file__).resolve().parent.parent / "src" / "vsslab"

# the only raises that are not deliberate library failures: the record
# plumbing's TypeError and AttributeError (what Python itself raises for a
# bad call or a frozen attribute), the CLI's usage errors, and one
# invariant no input reaches
EXEMPT = {
    ("record.py", "__init__", "TypeError"),
    ("record.py", "_frozen", "AttributeError"),
    ("cli.py", "_parse", "_UsageError"),
    ("cli.py", "_cmd_demo", "_UsageError"),
    ("protocol.py", "assemble_group_key", "RuntimeError"),
}


def sites(path, names):
    """(file, enclosing function, name) for every name that names(node)
    yields, over the nodes of path."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
                continue
            for name in names(child):
                yield path.name, function, name
            yield from walk(child, function)

    yield from walk(ast.parse(path.read_text(), filename=str(path)), None)


def name_of(node):
    return getattr(node, "id", ast.unparse(node))


def raises(path):
    """(file, enclosing function, raised name) for every raise in path."""
    def raised(node):
        if isinstance(node, ast.Raise):
            yield name_of(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)

    return sites(path, raised)


def coerce_enum_errors(path):
    """(file, calling function, class name) for every call of
    record.coerce_enum in path: the error class it is told to raise."""
    def passed(node):
        if isinstance(node, ast.Call) and name_of(node.func) == "coerce_enum":
            yield name_of(node.args[3])

    return sites(path, passed)


def test_errors_module_defines_the_seven_classes():
    defined = {name: cls for name, cls in vars(errors).items() if isinstance(cls, type)}
    assert set(defined) == {"VsslabError", "ConfigInvalid", "InvalidGroupParams", "TooLarge",
                            "ForgeryImpossible", "UnknownParamSet", "GenerationFailed"}
    assert errors.VsslabError.__bases__ == (ValueError,)
    assert all(issubclass(cls, errors.VsslabError) for cls in defined.values())
    assert issubclass(errors.UnknownParamSet, KeyError)
    assert issubclass(errors.GenerationFailed, RuntimeError)


def test_every_raise_names_a_vsslab_error():
    found = {site for path in sorted(SRC.glob("*.py")) for site in raises(path)}
    assert found
    # coerce_enum raises the class its caller passes, so each call site
    # stands for that raise
    found.remove(("record.py", "coerce_enum", "error"))
    found |= {site for path in sorted(SRC.glob("*.py")) for site in coerce_enum_errors(path)}
    library_errors = {name for name, cls in vars(errors).items() if isinstance(cls, type)}
    assert {site for site in found if site[2] not in library_errors} == EXEMPT
