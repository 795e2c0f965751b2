"""Checks on the library source itself."""

import ast
import importlib.util
import shutil
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "tnlab").glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants must raise real exceptions
    found = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        if lines:
            found[path.name] = lines
    assert SOURCES, "no library sources found"
    assert found == {}, f"assert statements (file: lines): {found}"


# the network entry points; everything else in `network` is its own business
NETWORK_API = {"contract", "bra_ket", "check_bra_ket", "check_contract", "overlap",
               "NETWORK_BUDGET", "BUFFER_BYTES"}


def test_library_uses_only_the_network_entry_points():
    found = {}
    for path in SOURCES:
        if path.name == "network.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "network"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("network"):
                used.update(alias.name for alias in node.names)
        if used - NETWORK_API:
            found[path.name] = sorted(used - NETWORK_API)
    assert SOURCES, "no library sources found"
    assert found == {}, f"network internals used (file: names): {found}"


def test_network_builds_every_bra_ket_ring_in_one_place():
    # `contract`, `bra_ket` and `overlap` share one ring: its values, environments,
    # double-layer transfer matrices and sweep tensors are each formed by a single
    # function of `network`
    ring_parts = {"ring_value", "ring_environments", "_double_column", "_sweep_tensor"}
    path = next(p for p in SOURCES if p.name == "network.py")
    callers = {name: set() for name in ring_parts}
    for func in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ring_parts):
                callers[node.func.id].add(func.name)
    assert all(len(names) == 1 for names in callers.values()), f"callers: {callers}"


def test_every_library_constant_is_read():
    # a module-level UPPER_CASE name that nothing reads is dead configuration
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assigned, read = {}, set()
    for path in SOURCES + tests:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in SOURCES:
            for node in tree.body:
                for target in node.targets if isinstance(node, ast.Assign) else []:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        assigned[target.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert assigned, "no library constants found"
    unread = {name: module for name, module in assigned.items() if name not in read}
    assert unread == {}, f"constants never read (name: module): {unread}"


def test_the_span_tracer_finds_every_name_it_wraps():
    # benchmarks/spans.py wraps library functions by name, and deleting one of them makes
    # Tracer.__enter__ raise AttributeError; the tracer is entered here as a traced run does
    import tnlab.cli  # noqa: F401  (imports every module the tracer patches)

    loader = importlib.util.spec_from_file_location("spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    names = [(sys.modules[f"tnlab.{mod}"], fn) for mod, fns in spans.TARGETS.items()
             for fn in fns]
    originals = [getattr(module, fn) for module, fn in names]
    with spans.Tracer():
        assert all(getattr(module, fn) is not original
                   for (module, fn), original in zip(names, originals))
    assert all(getattr(module, fn) is original for (module, fn), original in zip(names, originals))


def test_one_sample_loop_builds_every_state():
    # Monte-Carlo samples are drawn in one place, `variance.sample_values`, a chunk at a
    # time through `build_states`, whose chunk of one is `build_state`; and no library
    # function defers an import to call time
    calls, deferred = set(), []
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("build_state", "build_states")):
                    calls.add(f"{path.stem}.{func.name} -> {node.func.id}")
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    deferred.append(f"{path.stem}.{func.name}")
    assert calls == {"variance.sample_values -> build_states",
                     "states.build_state -> build_states"}
    assert deferred == []


def test_only_the_cli_formats_results():
    # results are plain records: `cli` alone writes CSV and builds the JSON documents
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if path.name != "cli.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) \
                    else [node.module]
                found += [f"{path.name} imports csv" for m in modules if m == "csv"]
            elif isinstance(node, ast.ClassDef):
                found += [f"{path.name}: {node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef)
                          and item.name in ("to_json_dict", "csv_rows")]
    assert SOURCES, "no library sources found"
    assert found == []


def private_reads(paths):
    """The names private to one module that another reads, as "file: text": `from .x import _y`
    and `x._y` for a module bound by `from . import x`."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
        modules = {alias.asname or alias.name for node in imports if node.module is None
                   for alias in node.names}
        found += [f"{path.name}: from .{node.module or ''} import {alias.name}"
                  for node in imports for alias in node.names if alias.name.startswith("_")]
        found += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    return found


def test_no_module_reads_another_modules_private_names():
    # a check that another module needs is public, as `network.check_contract` and
    # `polyomino.check_area` are
    assert SOURCES, "no library sources found"
    assert private_reads(SOURCES) == []


def test_the_private_name_scan_finds_both_forms(tmp_path):
    path = tmp_path / "caller.py"
    path.write_text("from . import network as net\nfrom .polyomino import _stats, stats\n\n"
                    "def f(x):\n    return net._ring(x), net.contract(x), x._y\n")
    assert private_reads([path]) == ["caller.py: from .polyomino import _stats",
                                     "caller.py: net._ring"]


# names kept for callers outside the package: the public API (`build_state`, one state
# from one generator, is the chunk of one that the library itself no longer asks for),
# and the two functions that benchmarks/spans.py wraps but no production path calls,
# which stay until its spans are rewritten
PUBLIC_API = {"losses.loss_value", "states.build_state", "states.save_state",
              "states.load_state", "polyomino.toric_to_plane", "polyomino.toric_stats",
              "polyomino.enumerate_toric", "polyomino.decomposition_problems",
              "tensors.second_moment_channel", "losses.traceless_observable",
              "bounds.global_variance_bound"}
SPAN_WRAPPED = {"network.site_double_tensor", "spinmodel.all_config_amplitudes"}


def unreachable_definitions(package):
    """Top-level functions and classes of the modules in package but cli, as "module.name",
    that nothing reaches from cli, PUBLIC_API or SPAN_WRAPPED.

    A definition reaches the names its body (decorators and defaults included) reads:
    names of its own module, names bound by `from .x import y`, and `x.y` for a module
    bound by `from . import x`. All of cli is a root, and so is the other top-level code
    of every module but `__init__`, whose imports only re-export.
    """
    defined, edges, roots = set(), {}, set(PUBLIC_API | SPAN_WRAPPED)
    for path in sorted(Path(package).glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
        names, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = f"{module}.{node.name}"

        def reads(node, names=names, modules=modules):
            found = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    found.add(names[sub.id])
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    found.add(f"{modules[sub.value.id]}.{sub.attr}")
            return found

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and module != "cli":
                defined.add(names[node.name])
                edges[names[node.name]] = reads(node)
            elif module != "__init__" and not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= reads(node)
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo += edges.get(name, ())
    return defined - seen


def test_every_library_definition_is_reachable():
    # library code that only tests read belongs in tests/oracles.py
    defined = {f"{path.stem}.{node.name}" for path in SOURCES
               for node in ast.parse(path.read_text(), filename=str(path)).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert PUBLIC_API | SPAN_WRAPPED <= defined
    assert unreachable_definitions(ROOT / "src" / "tnlab") == set()


def test_the_reachability_scan_names_an_unreferenced_function(tmp_path):
    package = tmp_path / "tnlab"
    shutil.copytree(ROOT / "src" / "tnlab", package)
    with open(package / "states.py", "a") as fh:
        fh.write("\n\ndef orphan(state):\n    return local_tensor(state)\n")
    assert unreachable_definitions(package) == {"states.orphan"}


def test_every_mutant_edits_exactly_one_place():
    # tests/mutants.py runs by hand, so a rename that moves an edit's old text would
    # otherwise orphan its mutant unseen
    counts = {m.name: (ROOT / m.file).read_text().count(m.old) for m in MUTANTS}
    assert counts == dict.fromkeys(counts, 1)
