"""Layout rule: no amalgams module imports another module's private names."""

from __future__ import annotations

import ast
import pathlib

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
