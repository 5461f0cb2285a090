"""Every file that src/ writes goes through one writer, dataset.replacing,
so the write policy (UTF-8, LF line ends, replaced only when whole) is
decided in one place.

The scan finds a file opened to write by the builtin `open`, `io.open`, a
method named `open` (`Path.open`), `os.open` (other than of os.devnull),
and `write_text`/`write_bytes`. A writer reached some other way, such as
`np.save` or `shutil.copy`, is not seen."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gripforecast"


def _calls(node: ast.AST, where: str):
    """(innermost enclosing function, call) of each call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield where, child
        inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                 else where)
        yield from _calls(child, inner)


def _mode_writes(call: ast.Call, index: int) -> bool:
    """Whether the mode, positional argument `index` or keyword `mode`,
    writes (a mode that is not a literal counts)."""
    mode = call.args[index] if len(call.args) > index else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value).isdisjoint("wax+"))


def _writes(call: ast.Call) -> bool:
    """Whether `call` opens a file to write it (see the module docstring)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open" and _mode_writes(call, 1)
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in ("write_text", "write_bytes"):
        return True
    if func.attr != "open":
        return False
    module = func.value.id if isinstance(func.value, ast.Name) else None
    if module == "os":  # flags, not a mode
        return not (call.args and ast.unparse(call.args[0]) == "os.devnull")
    return _mode_writes(call, 1 if module == "io" else 0)


@pytest.mark.parametrize("code, writes", [
    ('open(p, "w")', True), ('open(p, mode="a")', True), ("open(p, m)", True),
    ('Path(p).open("w")', True), ('p.open(mode="x")', True), ('io.open(p, "r+")', True),
    ("os.open(p, os.O_WRONLY)", True), ('p.write_text("")', True), ('p.write_bytes(b"")', True),
    ("open(p)", False), ('open(p, "rb")', False), ('p.open(encoding="utf-8")', False),
    ('io.open(p, "r")', False), ("os.open(os.devnull, os.O_WRONLY)", False),
])
def test_the_scan_sees_each_way_of_opening_to_write(code, writes):
    assert _writes(ast.parse(code).body[0].value) is writes


def test_one_function_in_src_writes_files():
    writers = [f"{path.name}:{call.lineno} in {where}"
               for path in sorted(SRC.glob("*.py"))
               for where, call in _calls(ast.parse(path.read_text(encoding="utf-8")), "<module>")
               if _writes(call)]
    assert writers and all(w.startswith("dataset.py:") and w.endswith(" in replacing")
                           for w in writers), writers
