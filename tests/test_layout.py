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


def test_replays_walk_chains_on_elements():
    # witnesses and certificates are replayed by element arithmetic, so a
    # fault in the chain codes cannot also fool the replay: neither replay
    # passes codes (keyword, or an eighth positional argument) to
    # cancellation_chain
    tree = ast.parse((PACKAGE / "cancellation.py").read_text())
    replays = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in
               ("replay_cprime_witness", "replay_certificate")}
    assert len(replays) == 2
    for name, func in replays.items():
        calls = [node for node in ast.walk(func)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id == "cancellation_chain"]
        assert calls, name
        for call in calls:
            assert len(call.args) <= 7, name
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            assert all(kw.arg not in ("codes", None)
                       for kw in call.keywords), name
