"""Every module-level private name and every module-level import in src/ is
used there, and every public name and dataclass field in src/ is read by
src/, perfbench/ or tests/: code that nothing calls is deleted, not kept."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gripforecast"


def _uses(node: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import, in `node`."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _definitions(tree: ast.Module):
    """(name, defining statement) of each module-level function, class and
    assigned name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            yield from ((n.id, stmt) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _methods(tree: ast.Module):
    """(name, definition) of each method of each module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            yield from ((sub.name, sub) for sub in cls.body
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)))


def test_every_private_module_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "dataset.py" in trees
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{module}: {name}"
              for module, tree in trees.items()
              for name, stmt in _definitions(tree)
              if name.startswith("_") and not name.startswith("__")
              and uses[name] == _uses(stmt)[name]]
    assert not unused, unused


def _all_trees() -> dict[Path, ast.Module]:
    """The parsed .py files of src/, perfbench/ and tests/."""
    files = [path for top in ("src", "perfbench", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    assert SRC / "model.py" in trees and ROOT / "perfbench" / "run.py" in trees
    return trees


def _dataclass_fields(tree: ast.Module):
    """(class name, field name) of each field of each module-level dataclass."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in cls.decorator_list):
            yield from ((cls.name, stmt.target.id) for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))


def test_every_public_name_in_src_is_read_somewhere():
    # Public module-level names and public methods; a read inside the name's
    # own definition (a recursive call, say) does not count.
    trees = _all_trees()
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for name, stmt in (*_definitions(trees[path]), *_methods(trees[path]))
              if not name.startswith("_") and uses[name] == _uses(stmt)[name]]
    assert not unused, unused


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = {n.id for n in ast.walk(tree)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import) or (isinstance(stmt, ast.ImportFrom)
                                                and stmt.module != "__future__"):
                unused += [f"{path.name}: {alias.name}" for alias in stmt.names
                           if (alias.asname or alias.name.split(".")[0]) not in reads]
    assert not unused, unused


def test_every_dataclass_field_in_src_is_read_somewhere():
    # A read is an attribute load (`rec.t_ms`) or the field's name as a
    # string (a getattr or a config key); passing it to the constructor is not.
    trees = _all_trees()
    reads = Counter()
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads[sub.attr] += 1
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                reads[sub.value] += 1
    fields = [(path.name, *field) for path in sorted(SRC.glob("*.py"))
              for field in _dataclass_fields(trees[path])]
    assert len(fields) > 40
    unread = [f"{module}: {cls}.{name}" for module, cls, name in fields if not reads[name]]
    assert not unread, unread
