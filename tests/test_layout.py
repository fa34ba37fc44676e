"""Layout rules: no amalgams module imports another module's private
names, the CLI starts without the heavy numeric libraries or
dataclasses, the benchmark's tracer can wrap a CLI run, every
definition is reachable from the CLI, some call in src passes every
optional parameter, and every recorded mutant still finds its text."""

from __future__ import annotations

import ast
import json
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


def _package_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def test_cli_import_loads_no_numeric_libraries():
    # numpy alone costs about 0.15 s to import, and no function of the
    # package uses it
    probe = ("import sys, amalgams.cli; "
             "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every op imports the CLI; dataclasses costs its import of inspect
    # and an exec per generated method, and the records need neither
    probe = ("import sys, amalgams.cli; print(sorted(m for m in "
             "('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scan_colorings_runs_without_numpy(tmp_path):
    # the subadditivity check and the hitting scan run on Python ints; a
    # None entry in sys.modules makes any import of numpy fail
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"count": 40, "targets": [[1, 0, 0],
                                                        [2, 1, 0]]}))
    probe = ("import sys; sys.modules['numpy'] = None; "
             "from amalgams.cli import main; "
             f"sys.exit(main(['scan-colorings', '--config', {str(cfg)!r}, "
             f"'--out', {str(tmp_path / 'report.json')!r}]))")
    out = subprocess.run([sys.executable, "-c", probe], env=_package_env(),
                         capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["subadditivity", "hitting-scan"]


def test_benchmark_tracer_wraps_a_cli_run(tmp_path):
    # perfbench/tracer.py wraps each traced function wherever a loaded
    # module binds it, once `import amalgams.cli` has loaded them; a
    # module that cli imports only inside a subcommand is bound nowhere
    # at that point, and every traced op then dies before main runs
    root = PACKAGE.parent.parent
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(
        {"fixture": str(root / "fixtures" / "systems" / "with_h.json")}))
    trace = tmp_path / "trace.json"
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(trace),
         "validate-system", "--config", str(cfg)],
        env=_package_env(), cwd=tmp_path, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    metrics = json.loads(trace.read_text())["metrics"]
    assert metrics["cli.main"]["calls"] == 1


def test_replays_walk_chains_on_elements():
    # witnesses and certificates are replayed without the chain codes
    # (by element arithmetic, or by one free reduction per Dehn part),
    # so a fault in the codes cannot also fool the replay. Neither
    # replay, nor any function of the module it calls other than
    # cancellation_chain, takes a codes argument or reads code_word,
    # codes or _coded_walk; and neither passes codes (keyword, or an
    # eighth positional argument) to cancellation_chain
    tree = ast.parse((PACKAGE / "cancellation.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    replays = ("replay_cprime_witness", "replay_certificate")
    for name in replays:
        func = functions[name]
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
        seen, todo = set(), [name]
        while todo:
            reached = functions[todo.pop()]
            seen.add(reached.name)
            arguments = reached.args
            assert "codes" not in {a.arg for a in arguments.posonlyargs
                                   + arguments.args
                                   + arguments.kwonlyargs}, reached.name
            read = _names(reached)
            assert not read & {"code_word", "codes", "_coded_walk"}, \
                (name, reached.name)
            todo += [callee for callee in read & set(functions)
                     if callee not in seen | {"cancellation_chain"}]


# definitions that no subcommand reaches but that stay, with the reason
KEEP = {
    "certificate_from_json": "reader half of the certificate_to_json "
                             "round-trip test",
    "relators_from_json": "reader half of the relators_to_json round-trip "
                          "test",
    "word_from_json": "reader half of the word_to_json round-trip test",
    "ord_from_str": "reader half of the ord_to_str round-trip test",
    "parse_report": "reader half of the emit_report round-trip test",
    "from_json": "words.from_json: reader half of the words.to_json "
                 "round-trip test",
    "q_code": "inverse of q_of; tests build coloring tables with it",
    "cantor_pair": "inverse of cantor_unpair, checked against it",
    "successor": "inverse of predecessor, checked against it",
    "FiniteTableGroup.cyclic": "the test amalgams are built with it",
    "FiniteTableGroup.symmetric": "the test amalgams are built with it",
    "FiniteTableGroup.from_permutations": "the test amalgams are built "
                                          "with it",
}

# every definition that shares its name with another, with the
# definition in src that calls it: a scan by bare name reaches all of
# them through any one, so each names its caller here or has a KEEP
# reason. A method that overrides a method of its base class is not
# listed; calls reach it through the base.
CALLERS = {
    "cancellation.DehnStep.to_json": "cancellation.certificate_to_json",
    "colorings.ColoringTable.e": "engine.i_at",
    "colorings.ColoringTable.from_json": "engine.run_construction",
    "colorings.ColoringTable.to_json": "engine.presentation",
    "colorings.WalkColoring.e": "colorings.ColoringTable.from_walks",
    "engine.StageState.element": "engine.advance_stage",
    "engine.StageState.generator": "engine.init_base",
    "groups.Element.inv": "canonical.canonical_inverse",
    "groups.FreeGroup.generator": "engine.StageState.generator",
    "groups.GroupHandle.element": "cli._build_syllable",
    "groups.GroupHandle.inv": "groups.Element.inv",
    "words.to_json": "groups.FreeGroup.payload_to_json",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name, names it reads) for every module-level def
    and class and every method other than a dunder. A class reads what
    its bases, decorators and body read outside those methods, dunders
    included, since Python calls dunders implicitly."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name, _names(node)
        elif isinstance(node, ast.ClassDef):
            reads = set()
            for part in node.bases + node.keywords + node.decorator_list:
                reads |= _names(part)
            for child in node.body:
                if isinstance(child, FUNCTIONS) and not _dunder(child.name):
                    yield (f"{node.name}.{child.name}", child.name,
                           _names(child))
                else:
                    reads |= _names(child)
            yield node.name, node.name, reads


def _scan():
    """Every definition, as (module-qualified name, name, names it
    reads), and the names reached from the roots: cli.main, module-level
    code other than imports, and KEEP. A reached name reaches every def,
    class or method of that name, in any module or class, whether it is
    read as a name or as an attribute."""
    found, defs, roots = [], {}, {"main", *(k.split(".")[-1] for k in KEEP)}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for qual, name, reads in _definitions(tree):
            found.append((f"{path.stem}.{qual}", name, reads))
            defs.setdefault(name, []).append(reads)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom,
                                     ast.ClassDef, *FUNCTIONS)):
                roots |= _names(node)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for reads in defs.get(name, ()):
                todo.extend(reads)
    return found, seen


def test_every_definition_is_reachable_from_the_cli():
    # the scan can only err towards keeping code; the shared names it
    # cannot tell apart are checked below
    found, seen = _scan()
    qualified = {qual.split(".", 1)[1] for qual, _, _ in found}
    assert set(KEEP) <= qualified
    unreachable = sorted(qual for qual, name, _ in found if name not in seen)
    assert not unreachable, "unreachable: " + ", ".join(unreachable)


def test_every_shared_name_has_its_own_caller():
    found, seen = _scan()
    methods, bases = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_names(b) for b in node.bases]
                methods[node.name] = {child.name for child in node.body
                                      if isinstance(child, FUNCTIONS)}
    by_name = {}
    for qual, name, _ in found:
        owner = qual.split(".")[1] if qual.count(".") == 2 else None
        if owner and any(name in methods.get(base, ())
                         for names in bases[owner] for base in names):
            continue  # an override, reached through its base
        by_name.setdefault(name, []).append(qual)
    shared = {qual for quals in by_name.values() if len(quals) > 1
              for qual in quals if qual.split(".", 1)[1] not in KEEP}
    assert shared == set(CALLERS)
    reads = {qual: (name, found_reads) for qual, name, found_reads in found}
    for qual, caller in CALLERS.items():
        assert caller in reads, caller
        caller_name, caller_reads = reads[caller]
        assert caller_name in seen, caller
        assert qual.split(".")[-1] in caller_reads, (qual, caller)


# optional parameters that no call in src passes, with the reason each
# stays; any other such parameter has only ever one value and becomes a
# constant
KEEP_OPTIONAL = {
    "cli.main.argv": "entry point: tests pass the arguments, a console "
                     "run reads sys.argv",
    "colorings.ColoringTable.from_walks.C": "test hook: tests walk other "
                                            "ladder systems",
    "groups.FreeGroup.generator.sign": "tests build inverse generators "
                                       "with it",
}


def _optional_parameters():
    """{bare name a call uses: [(qualified name, positional parameters
    after self or cls, optional parameters)]}. A class's __init__ is
    listed under the class name and under __init__."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, FUNCTIONS):
                found = [(node.name, node, [node.name], False)]
            elif isinstance(node, ast.ClassDef):
                found = [(f"{node.name}.{m.name}", m,
                          [m.name] + [node.name] * (m.name == "__init__"),
                          not any(isinstance(d, ast.Name)
                                  and d.id == "staticmethod"
                                  for d in m.decorator_list))
                         for m in node.body if isinstance(m, FUNCTIONS)]
            else:
                continue
            for qual, func, keys, bound in found:
                args = func.args
                names = [a.arg for a in args.posonlyargs + args.args]
                optional = names[len(names) - len(args.defaults):]
                optional += [a.arg for a, d in zip(args.kwonlyargs,
                                                   args.kw_defaults)
                             if d is not None]
                for key in keys:
                    defs.setdefault(key, []).append(
                        (f"{path.stem}.{qual}", names[bound:], optional))
    return defs


def _calls():
    """(bare name called, call node) for every call in src; inside a
    class, ``cls(...)`` calls the class."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
        in_class = {id(call): cls.name for cls in classes
                    for call in ast.walk(cls) if isinstance(call, ast.Call)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
                if name == "cls" and id(call) in in_class:
                    name = in_class[id(call)]
                yield name, call
            elif isinstance(func, ast.Attribute):
                yield func.attr, call


def _unpassed_optional_parameters():
    """Every optional parameter of a function or method in src that no
    call in src passes. Calls are matched by bare name, so a call passes
    a parameter to every definition of that name; a call with *args or
    **kwargs passes them all."""
    defs = _optional_parameters()
    passed = set()
    for name, call in _calls():
        spread = any(isinstance(a, ast.Starred) for a in call.args) or \
            any(kw.arg is None for kw in call.keywords)
        for qual, names, optional in defs.get(name, ()):
            given = optional if spread else \
                names[:len(call.args)] + [kw.arg for kw in call.keywords]
            passed.update((qual, p) for p in given)
    return {f"{qual}.{p}" for entries in defs.values()
            for qual, _, optional in entries for p in optional
            if (qual, p) not in passed}


def test_every_optional_parameter_is_passed_in_src():
    # a parameter that every caller leaves at its default is a knob that
    # doubles the configurations to test for nothing
    unpassed = _unpassed_optional_parameters()
    assert sorted(unpassed - set(KEEP_OPTIONAL)) == []
    assert set(KEEP_OPTIONAL) <= unpassed, "a KEEP_OPTIONAL entry is passed"


def test_every_mutant_old_text_occurs_once():
    # tests/run_mutants.py replaces each old text in a copy of src/; one
    # that moved or multiplied would mutate nothing or the wrong place
    from mutants import MUTANTS

    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    tests_dir = pathlib.Path(__file__).parent
    for m in MUTANTS:
        assert m.old != m.new, m.name
        assert sources[m.file].count(m.old) == 1, m.name
        assert sum(text.count(m.old) for text in sources.values()) == 1, \
            m.name
        for test_id in m.tests:
            path, _, name = test_id.partition("::")
            assert f"def {name}(" in \
                (tests_dir.parent / path).read_text(), (m.name, test_id)
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
