"""Apply each recorded mutant to a copy of src/ and run the tests that
must catch it.

    python tests/run_mutants.py [NAME ...]

With no names, every mutant of ``tests/mutants.py`` runs. The named
tests first run once on an unmutated copy, and must pass there. Then
each mutant gets a fresh copy of ``src/`` in a temporary directory with
its old text replaced by its new text, and its tests run in a pytest
subprocess with that copy alone on PYTHONPATH and Hypothesis seeded
with 0, so every run searches the same examples. A mutant is killed when
every test it names fails (or errors); otherwise it survives. Exits 0
when every mutant is killed, 1 naming each survivor, 2 when the
unmutated copy fails or an old text is not found exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from mutants import MUTANTS  # noqa: E402


def run_tests(src: str, tests) -> tuple:
    """(pytest's exit code, the ids among `tests` that fail or error)
    with `src` alone on the path. A parametrized test fails when any of
    its cases does, and every test of a file that fails to import."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--hypothesis-seed=0", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    failed = set()
    for line in out.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            node = rest.split(" - ")[0].split("[")[0]
            failed |= {t for t in tests
                       if t == node or t.startswith(node + "::")}
    return out.returncode, failed


def copy_src(dest: str) -> str:
    src = os.path.join(dest, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(argv=None) -> int:
    names = set(sys.argv[1:] if argv is None else argv)
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names - {m.name for m in chosen}:
        print(f"unknown mutants: {sorted(names - {m.name for m in chosen})}",
              file=sys.stderr)
        return 2
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        code, broken = run_tests(copy_src(tmp), tests)
    if code:
        print(f"unmutated copy: pytest exit {code}, failing "
              f"{sorted(broken)}", file=sys.stderr)
        return 2
    survivors = []
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = os.path.join(src, "amalgams", m.file)
            with open(path) as fh:
                text = fh.read()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} "
                      f"times in {m.file}", file=sys.stderr)
                return 2
            with open(path, "w") as fh:
                fh.write(text.replace(m.old, m.new))
            _, failed = run_tests(src, m.tests)
        missed = sorted(set(m.tests) - failed)
        print(f"{m.name}: {'survives ' + str(missed) if missed else 'killed'}")
        if missed:
            survivors.append(m.name)
    if survivors:
        print(f"survivors: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
