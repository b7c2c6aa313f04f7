"""The library imports nothing outside the standard library, loads no
stdlib module it would use for a single call, and exports the API the
README lists."""

import ast
import re
import subprocess
import sys
import types
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


def printed_by_a_fresh_process(code):
    """The output of code in a fresh `python -S` that imports vsslab from src."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC.parent)},
        check=True,
    )
    return result.stdout


# dataclasses brings inspect, ast, dis and tokenize; without them every run
# and verify starts in about half the time, and vsslab.record builds records
SINGLE_USE = ("configparser", "importlib.resources", "fractions", "typing", "pathlib",
              "dataclasses", "inspect")


def test_loading_the_registry_pulls_in_no_single_use_module():
    # modules that the stdlib modules the library needs load themselves
    # are not the library's (inspect, which dataclasses loaded, imports
    # typing on late 3.13 releases; neither is needed any more)
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
    assert printed_by_a_fresh_process(code) == "[]\n"


def a_run_and_its_verify(tmp_path):
    """Code in which vsslab.cli.main runs `run` and then `verify` on its transcript."""
    transcript = str(tmp_path / "t.json")
    return (
        "from vsslab.cli import main\n"
        f"assert main(['run', '--scenario', 'honest', '--seed', '7', '--out', {transcript!r}]) == 0\n"
        f"assert main(['verify', {transcript!r}]) == 0\n"
    )


def loaded_by_a_run_and_its_verify(tmp_path, names):
    """Which of names a fresh `python -S` process has loaded after
    vsslab.cli.main ran `run` and then `verify` on its transcript."""
    code = (
        "import sys\n"
        + a_run_and_its_verify(tmp_path)
        + f"print(sorted(set({names!r}) & set(sys.modules)))\n"
    )
    return printed_by_a_fresh_process(code)


# argparse, and the gettext and locale catalogue lookups and the shutil
# terminal-width call its parser makes, cost about 12 ms of every run and
# verify process; the CLI's own table-driven parser needs none of them
PARSER_ONLY = ("argparse", "gettext", "locale", "shutil")


def test_a_run_and_its_verify_load_no_argparse(tmp_path):
    assert loaded_by_a_run_and_its_verify(tmp_path, PARSER_ONLY) == "[]\n"


# the json package imports re and its compiler, about 5 ms of every run and
# verify process; canonical JSON and the audit's parse use json's C core
# _json, and only a transcript that is not valid JSON loads json
REGEX_ONLY = ("json", "re")


def test_a_run_and_its_verify_load_no_json_and_no_re(tmp_path):
    assert loaded_by_a_run_and_its_verify(tmp_path, REGEX_ONLY) == "[]\n"


# enum, which the four kinds were, imports functools, and functools imports
# collections: about 7 ms of every process. The kinds are record.Choice
# constants, and the caches call functools' C core _functools
ENUM_AND_ITS_IMPORTS = ("enum", "functools", "collections")


def test_a_run_and_its_verify_load_no_enum_functools_or_collections(tmp_path):
    assert loaded_by_a_run_and_its_verify(tmp_path, ENUM_AND_ITS_IMPORTS) == "[]\n"
    # and the benchmark's set-up op
    code = (
        "import sys\n"
        "import vsslab; vsslab.load_registry()\n"
        f"print(sorted(set({ENUM_AND_ITS_IMPORTS!r}) & set(sys.modules)))\n"
    )
    assert printed_by_a_fresh_process(code) == "[]\n"


def added_by_a_fresh_process(code):
    """The standard-library modules that a fresh `python -S` child loads
    by running code, beyond its own start-up modules, and those start-up
    modules."""
    printed = printed_by_a_fresh_process(
        "import sys\n"
        "startup = set(sys.modules)\n"
        f"{code}\n"
        "added = {name for name in sys.modules if name.partition('.')[0] != 'vsslab'}\n"
        "print(sorted(added - startup))\n"
        "print(sorted(startup))\n"
    )
    return tuple(set(ast.literal_eval(line)) for line in printed.splitlines())


# Exactly what a ceremony runs: the C cores of functools, json and
# operator, itertools and math, and gc for the CLI's exit. Each other
# module costs every fresh process its import: __future__, operator,
# types, reprlib, _collections_abc, and os with the five modules it
# brings took about 12% of the set-up call. A module the interpreter
# itself loads at start-up is not the library's.
CEREMONY_MODULES = {"_functools", "_json", "_operator", "itertools", "math"}


def test_the_set_up_call_loads_only_what_a_ceremony_runs():
    added, startup = added_by_a_fresh_process("import vsslab; vsslab.load_registry()")
    assert added == CEREMONY_MODULES - startup


def test_a_run_and_its_verify_load_only_what_a_ceremony_runs(tmp_path):
    added, startup = added_by_a_fresh_process(a_run_and_its_verify(tmp_path))
    assert added == (CEREMONY_MODULES | {"gc"}) - startup


def readme_api():
    """The names the README's "Library API" section lists in its bullets."""
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, re.MULTILINE)
    return {name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)}


def test_the_package_exports_the_readme_api():
    import vsslab

    exported = {name for name, value in vars(vsslab).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == readme_api()
    assert len(exported) == 21
    # the benchmark imports these from the package itself
    ops = SRC.parent.parent / "perfbench" / "ops.py"
    benchmarked = {alias.name for node in ast.walk(ast.parse(ops.read_text()))
                   if isinstance(node, ast.ImportFrom) and node.module == "vsslab"
                   for alias in node.names}
    assert benchmarked and benchmarked <= exported
