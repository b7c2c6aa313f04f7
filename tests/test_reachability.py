"""Every statement of src/vsslab is reached by a user path, or listed with
the reason it stays.

A fresh `python -S` child runs tests/reachability_corpus.py under
sys.settrace, so no cache an earlier test warmed can hide a function
body. A line event counts for every statement whose line range holds it,
which keeps Python 3.10-3.13 in agreement wherever each puts the event
of a statement that spans lines. Docstrings and `raise` statements are
exempt: input checks are safety code. In the functions of
ARC_FUNCTIONS the branches are checked too, as arcs from statement to
statement, since a loop that continues adds no line of its own.

What the corpus misses is compared with tests/data/unreached.txt. An
entry there is one line, `stmt MODULE QUALNAME N | TEXT` or
`arc MODULE QUALNAME N | FROM -> TO`: TEXT is the statement's first line
without its comment, and N counts the statements (or arcs) of QUALNAME
with that text, in source order, so no entry names a line number. Each
entry sits under a `why:` line that gives its reason. A statement that
is newly missed fails the test, and so does an entry that is reached or
gone; the failure prints the exact lines to add or remove.
"""

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

from reachability_corpus import ARC_FUNCTIONS, tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vsslab"
LISTED = Path(__file__).parent / "data" / "unreached.txt"
EXIT = "<exit>"


def code_lines(source):
    """The lines of source, each cut before its comment."""
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return lines


def is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def exempt(node):
    return is_docstring(node) or isinstance(node, ast.Raise)


class Module:
    """The statements of one file of src/vsslab, with their texts and line ranges."""

    def __init__(self, path):
        self.name = path.stem
        source = path.read_text()
        lines = code_lines(source)
        self.statements = []  # (qualname, node, first line, last line)
        self.text = {EXIT: EXIT}
        self.functions = {}

        def walk(node, qualname):
            for child in ast.iter_child_nodes(node):
                inner = qualname
                if isinstance(child, ast.stmt):
                    first = min([child.lineno] + [d.lineno for d in
                                                  getattr(child, "decorator_list", ())])
                    self.statements.append((qualname, child, first, child.end_lineno))
                    self.text[child] = " ".join(
                        lines[child.lineno - 1][child.col_offset:].split())
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
                    self.functions[inner] = child
                walk(child, inner)

        walk(ast.parse(source), "<module>")

    def keyed(self, kind, items):
        """(entry, item) for (qualname, text, item) triples, numbered in source order."""
        seen = Counter()
        for qualname, text, item in items:
            seen[qualname, text] += 1
            yield f"{kind} {self.name} {qualname} {seen[qualname, text]} | {text}", item

    def missed_statements(self, hit):
        """Entries of the statements that hold none of the lines in hit."""
        hit = set(hit)
        items = [(qualname, self.text[node], range(first, last + 1))
                 for qualname, node, first, last in self.statements if not exempt(node)]
        return {entry for entry, lines in self.keyed("stmt", items) if hit.isdisjoint(lines)}

    def missed_arcs(self, qualname, traced):
        """Entries of the arcs of function qualname that no traced line pair took."""
        own = [(node, first, last) for q, node, first, last in self.statements if q == qualname]

        def innermost(line):
            holding = [(first, -last, node) for node, first, last in own
                       if first <= line <= last]
            return max(holding, key=lambda h: h[:2])[2] if holding else None

        taken = set()
        for a, b in traced:
            if a == 0:
                continue  # entering the function
            source, target = innermost(a), EXIT if b == 0 else innermost(b)
            if source is not None and target is not None and source is not target:
                taken.add((source, target))
        items = [(qualname, f"{self.text[s]} -> {self.text[t]}", (s, t))
                 for s, t in flow(self.functions[qualname])
                 if not exempt(s) and (t is EXIT or not exempt(t))]
        return {entry for entry, arc in self.keyed("arc", items) if arc not in taken}


def flow(function):
    """The statement-to-statement arcs the body of function can take, in
    source order; EXIT stands for leaving it. An exception's arc out of
    the statement that raised it is left out, but a handler's arcs are
    kept: into it from its try statement, and out of it."""
    arcs = []

    def block(body, after, loop):
        entry = after
        for node in reversed(body):
            if not is_docstring(node):
                entry = step(node, entry, loop)
        return entry

    def step(node, after, loop):
        if isinstance(node, ast.If):
            arcs.append((node, block(node.body, after, loop)))
            arcs.append((node, block(node.orelse, after, loop)))
        elif isinstance(node, (ast.For, ast.While)):
            arcs.append((node, block(node.body, node, (node, after))))
            arcs.append((node, block(node.orelse, after, loop)))
        elif isinstance(node, ast.Break):
            arcs.append((node, loop[1]))
        elif isinstance(node, ast.Continue):
            arcs.append((node, loop[0]))
        elif isinstance(node, (ast.Return, ast.Raise)):
            arcs.append((node, EXIT))
        elif isinstance(node, ast.Try) and not node.finalbody:
            # the trace enters a handler from its `except` line, which
            # only the try statement holds
            arcs.append((node, block(node.body, block(node.orelse, after, loop), loop)))
            for handler in node.handlers:
                arcs.append((node, block(handler.body, after, loop)))
        elif isinstance(node, (ast.With, ast.Try, ast.Match)):
            raise NotImplementedError(f"no arc model for {type(node).__name__}")
        else:
            arcs.append((node, after))
        return node

    block(function.body, EXIT, None)
    place = {node: (node.lineno, node.col_offset) for node in ast.walk(function)
             if isinstance(node, ast.stmt)}
    place[EXIT] = (float("inf"), 0)
    return sorted(set(arcs), key=lambda arc: (place[arc[0]], place[arc[1]]))


def read_listed():
    """The entries of unreached.txt, each checked to sit under a reason."""
    listed, reason = set(), None
    for number, line in enumerate(LISTED.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        if line.startswith("why:"):
            reason = line[len("why:"):].strip()
        else:
            assert reason, f"{LISTED.name}:{number}: entry without a 'why:' line above it"
            listed.add(line)
    return listed


@pytest.fixture(scope="module")
def missed():
    result = subprocess.run(
        [sys.executable, "-S", str(Path(__file__).parent / "reachability_corpus.py")],
        capture_output=True, text=True, env={"PYTHONPATH": str(ROOT / "src")}, timeout=300)
    assert result.returncode == 0, result.stderr
    trace = json.loads(result.stdout)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = Module(path)
        found |= module.missed_statements(trace["lines"].get(path.name, ()))
        for file_name, function in ARC_FUNCTIONS:
            if file_name == path.name:
                found |= module.missed_arcs(function, trace["arcs"].get(function, ()))
    return found


def test_every_statement_and_arc_is_reached_or_listed(missed):
    listed = read_listed()
    new, stale = sorted(missed - listed), sorted(listed - missed)
    message = []
    if new:
        message.append("reached by no user path; reach it from the corpus, delete it, or "
                       f"add under a 'why:' line of {LISTED.name}:\n" + "\n".join(new))
    if stale:
        message.append(f"reached now, or gone; remove from {LISTED.name}:\n" + "\n".join(stale))
    assert not message, "\n\n".join(message)


def countdown(n):
    while n:
        yield n
        n -= 1


def test_the_arc_out_of_a_yield_is_recorded():
    # each resumption of a generator is a call event; the tracer must
    # still know the yield it resumes from
    here = Path(__file__)
    lines, arcs = {}, {}
    previous = sys.gettrace()
    sys.settrace(tracer(lines, arcs, str(here.parent) + os.sep, {(here.name, "countdown")}))
    try:
        assert list(countdown(2)) == [2, 1]
    finally:
        sys.settrace(previous)
    top = countdown.__code__.co_firstlineno
    loop, yielding, counting = top + 1, top + 2, top + 3
    assert {(loop, yielding), (yielding, counting), (counting, loop)} <= arcs["countdown"]
    assert (0, counting) not in arcs["countdown"]
