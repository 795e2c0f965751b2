"""Checks on the library source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tnlab").glob("*.py"))


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
NETWORK_API = {"contract", "bra_ket", "overlap", "statevector", "NETWORK_BUDGET"}


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
