"""Function-body lines of ``src/tailorder`` that no Tier-1 test runs.

    python3 bench/linecov.py

Runs the Tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
on ``tests/``) under a ``sys.settrace`` hook. The hook lives in a generated
``sitecustomize.py`` on PYTHONPATH, so it starts before ``tailorder`` is
imported (class bodies and module level run at import), and the CLI
subprocesses the tests start, which inherit PYTHONPATH, are traced too. Each
process writes the lines it ran in the package when it exits.

``ast`` lists the statements inside every function body, the except clauses
among them and leaving out docstrings. A statement ran when any line of its
header did: a simple statement's lines, or a compound statement's lines up to
its first inner statement. Prints ``module:line`` and the line's text for each
statement that no test ran, marking those in ``ALLOWED`` with their reason.
Exits 1 when a line outside ``ALLOWED`` did not run, when an ``ALLOWED`` entry
names a line that did run or that is not there, or when the suite fails.
Stdlib only; it takes about twice the suite's own time.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tailorder"

# (module, the line's text without its indentation) -> why no test runs it
ALLOWED = {
    ("order.py", "except np.linalg.LinAlgError as exc:"):
        "safety code: lstsq documents LinAlgError (an SVD that does not converge), which "
        "finite fit data does not raise; the handler makes it a typed error",
    ("order.py", 'raise ExtrapolationFailure(f"window-limit extrapolation failed: {exc}") '
                 "from None"):
        "the body of that LinAlgError handler",
}

# installed in every traced process: records (file, line) for each line run
# in the package and writes them to its own file in the output directory
SITECUSTOMIZE = """
import atexit, os, sys, threading
_PACKAGE, _OUT = {package!r}, {out!r}
_hits = set()
def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line
def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PACKAGE) else None
def _write():
    with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as f:
        f.writelines(f"{{path}}\\t{{line}}\\n" for path, line in _hits)
atexit.register(_write)
sys.settrace(_call)
threading.settrace(_call)
"""


def statements(tree: ast.Module) -> dict[int, range]:
    """First line -> header lines of each statement inside a function body.

    A compound statement's header ends where its first inner statement
    starts, a simple statement's with its last line. An except clause counts
    as a statement, a docstring does not.
    """
    out: dict[int, range] = {}

    def visit(stmts: list) -> None:
        for node in stmts:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            out[first] = range(first, body[0].lineno if body else node.end_lineno + 1)
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for field in ("body", "handlers", "orelse", "finalbody"):
                    visit(getattr(node, field, None) or [])

    for node in ast.walk(tree):  # nested defs included
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit(node.body[1:] if ast.get_docstring(node, clean=False) is not None
                  else node.body)
    return out


def run_suite(out: Path) -> int:
    """Tier-1 under the trace hook; its exit code."""
    site = out / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(package=str(PACKAGE) + "/", out=str(out / "hits")))
    (out / "hits").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(site), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "tests"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()[-1:]
    print(f"tier-1: {''.join(tail)} (exit code {proc.returncode})", file=sys.stderr)
    return proc.returncode


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run_suite(out)
        hits: set[tuple[str, int]] = set()
        for path in (out / "hits").iterdir():
            for row in path.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    failed = code != 0
    unused = dict(ALLOWED)
    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for first, lines in sorted(statements(ast.parse(source)).items()):
            if any((str(path), line) in hits for line in lines):
                continue
            key = (path.name, text[first - 1].strip())
            reason = unused.pop(key, None)
            missing += 1
            note = f"  [allowed: {reason}]" if reason else ""
            print(f"{path.name}:{first}  {key[1]}{note}")
            failed = failed or reason is None
    for module, line in unused:
        print(f"allow-list entry runs or is gone: {module}: {line}")
        failed = True
    print(f"{missing} function-body lines not run, {len(ALLOWED) - len(unused)} of them "
          "allowed", file=sys.stderr)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
