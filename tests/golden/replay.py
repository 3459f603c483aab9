"""Replay the golden run in plan.txt and compare what it writes with expected/.

    python3 tests/golden/replay.py OUT

runs every plan line as a `docqa` command on PATH, inside the directory OUT
(made if missing). Each command must exit with its line's code, OUT must then
hold exactly the files of expected/, and each must match its expected file
byte for byte. Every mismatch is printed, a differing file with the number of
its first line that differs; the exit code is 0 when there is none and 1
otherwise. Imported, `replay` runs each command through a function
it is given instead, such as `docqa.cli.main`. Standard library only.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
PLAN = HERE / "plan.txt"
INPUT = HERE / "input"
EXPECTED = HERE / "expected"


def read_plan(plan=PLAN):
    """(line number, line, expected exit code, argv) for each command in `plan`,
    with {input} replaced by the input directory."""
    commands = []
    for number, line in enumerate(plan.read_text(encoding="utf-8").splitlines(), 1):
        argv = shlex.split(line, comments=True)
        if not argv:
            continue
        code = 0
        if argv[0].startswith("exit="):
            code = int(argv.pop(0).removeprefix("exit="))
        argv = [arg.replace("{input}", str(INPUT)) for arg in argv]
        commands.append((number, line, code, argv))
    return commands


def replay(out, run, plan=PLAN, expected=EXPECTED):
    """Run each command of `plan` as `run(argv) -> exit code` with `out` as the
    working directory, then compare `out` with `expected`. Returns one line per
    mismatch, each naming its plan line or file."""
    out = Path(out).resolve()
    problems = []
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for number, line, code, argv in read_plan(plan):
            found = run(argv)
            if found != code:
                problems.append(f"{plan.name} line {number}: exit {found}, expected {code}: {line}")
    finally:
        os.chdir(cwd)
    written = {path.name for path in out.iterdir()}
    wanted = {path.name for path in expected.iterdir()}
    problems += [f"{name}: missing from {out}" for name in sorted(wanted - written)]
    problems += [f"{name}: not in {expected}" for name in sorted(written - wanted)]
    for name in sorted(written & wanted):
        found, want = (out / name).read_bytes(), (expected / name).read_bytes()
        if found != want:
            line = first_difference(found, want)
            problems.append(f"{name}: differs from {expected / name} at line {line}")
    return problems


def first_difference(found, want):
    """The number of the first line at which two different byte strings
    differ; a line missing from one of them differs from any line."""
    pairs = zip_longest(found.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(number for number, (a, b) in enumerate(pairs, 1) if a != b)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: replay.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    problems = replay(out, lambda args: subprocess.run(["docqa", *args]).returncode)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"{out} matches {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
