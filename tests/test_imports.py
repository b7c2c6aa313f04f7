"""The library imports nothing outside the standard library, and loads
no stdlib module it would use for a single call."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vsslab"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_standard_library():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    outside = {
        (path.name, name)
        for path in modules
        for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()


SINGLE_USE = ("configparser", "importlib.resources", "fractions", "typing", "pathlib")


def test_loading_the_registry_pulls_in_no_single_use_module():
    # modules that the stdlib modules the library needs load themselves
    # (inspect imports typing on late 3.13 releases) are not the library's
    needed = sorted(
        {name for path in SRC.glob("*.py") for name in absolute_imports(path)} - set(SINGLE_USE)
    )
    code = (
        "import sys\n"
        f"for name in {needed!r}: __import__(name)\n"
        "before = set(sys.modules)\n"
        "import vsslab, vsslab.cli; vsslab.load_registry()\n"
        f"print(sorted(set({SINGLE_USE!r}) & (set(sys.modules) - before)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent)},
        check=True,
    )
    assert result.stdout == "[]\n"
