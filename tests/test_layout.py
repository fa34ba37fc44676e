"""Layout rules: no amalgams module imports another module's private
names, and the CLI starts without the heavy numeric libraries."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import amalgams

PACKAGE = pathlib.Path(amalgams.__file__).parent

# the one allowed case: kernels.py re-exports the kernel implementation,
# which keeps its module name because the benchmark tracer imports it
ALLOWED = {("kernels", "amalgams._pykernels")}


def _private(dotted: str) -> bool:
    return any(part.startswith("_") and not part.startswith("__")
               for part in dotted.split("."))


def test_no_module_imports_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name.startswith("amalgams.")
                          and _private(a.name)]
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                module = "amalgams" + ("." + module if module else "")
            if module.split(".")[0] != "amalgams" or \
                    (path.stem, module) in ALLOWED:
                continue
            found += [f"{path.name}: from {module} import {a.name}"
                      for a in node.names if _private(f"{module}.{a.name}")]
    assert found == []


def test_cli_import_loads_no_numeric_libraries():
    # numpy alone costs about 0.15 s to import; the few functions that
    # need it import it when called
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, amalgams.cli; "
             "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
