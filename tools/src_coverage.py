"""List the ``src/mmfuse`` statements that the Tier-1 suite never runs.

This runs Tier-1's pytest command in this process under a ``sys.settrace``
line hook that traces only the frames of ``src/mmfuse`` files, then prints
``path:line: source`` for every executable statement that never ran, and
their count. A statement is executable when the compiled module gives one of
its own lines (a compound statement's header, not its body) a bytecode line.
Lines that run only in a child process, as the byte manifest test's
commands do, are not seen. Each source is read before the run and listed
against that text; a file whose text differs once the run ends is named on
one line, and the tool exits 1 without listing anything.

``test_gating_adaptivity`` is deselected, as tracing makes a run several
times slower and that test is most of the suite. Test outcomes are ignored:
a slower run can break [1/9]'s wall-clock bound, and the tracer's references
to frames can break the garbage-cycle tests, yet the statements they ran
count. It stands in for the ``coverage`` package and is not part of Tier-1::

    python3 tools/src_coverage.py              # from any directory
    python3 tools/src_coverage.py -k test_cli  # extra pytest arguments
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmfuse"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "-k", "not test_gating_adaptivity"]


def _code_lines(code) -> set[int]:
    """Every line that a code object, or one nested in it, has bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST):
    """Each statement with its own lines: all of them for a simple statement,
    the header (decorators included) up to its first nested statement for a
    compound one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            nested = [child.lineno for child in ast.iter_child_nodes(node)
                      if isinstance(child, ast.stmt)]
            yield node, set(range(first, min([node.end_lineno + 1, *nested])))


def unrun(path: Path, source: str, ran: set[int]) -> list[tuple[int, str]]:
    """The executable statements of one source file, whose text is ``source``,
    none of whose lines ran."""
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    return sorted((node.lineno, text[node.lineno - 1].strip())
                  for node, own in _statements(ast.parse(source))
                  if own & executable and not own & ran)


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    traced: dict[object, object] = {}  # code object -> its local tracer, or None

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            if code.co_filename.startswith(prefix):
                lines = ran.setdefault(code.co_filename, set())

                def local(frame, event, arg):
                    if event == "line":
                        lines.add(frame.f_lineno)
                    return local
                traced[code] = local
            else:
                traced[code] = None
        return traced[code]

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    sys.settrace(tracer)
    try:
        pytest.main([*TIER1, *argv])
    finally:
        sys.settrace(None)

    changed = [path for path, source in sources.items()
               if not path.is_file() or path.read_text(encoding="utf-8") != source]
    for path in changed:
        print(f"{path.relative_to(ROOT)} changed during the run; no statement is listed")
    if changed:
        return 1
    total = 0
    for path, source in sources.items():
        for line, text in unrun(path, source, ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} executable statements of src/mmfuse never ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
