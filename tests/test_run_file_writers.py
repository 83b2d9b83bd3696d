"""Only the harness, the checkpoint module and the scenario writer write files.

Every other module of ``atmarl`` hands its results to ``harness.py``, which
names and writes each run file, so one place turns a write the file system
refuses into a typed error.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "atmarl"
WRITERS = {"harness.py", "checkpoint.py", "config.py"}
FILE_CALLS = {"open", "write_text", "write_bytes"}


def file_writes(path: Path) -> list[str]:
    """Each call of ``open``, ``.open``, ``.write_text`` or ``.write_bytes``, and each ``csv`` import, in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                found.append(f"{path.name}:{node.lineno} {name}")
        elif isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names):
            found.append(f"{path.name}:{node.lineno} import csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.append(f"{path.name}:{node.lineno} from csv import")
    return found


def test_only_the_writer_modules_open_files():
    modules = sorted(SRC.glob("*.py"))
    assert WRITERS <= {path.name for path in modules}
    found = [write for path in modules if path.name not in WRITERS for write in file_writes(path)]
    assert found == [], found


def test_the_guard_sees_each_kind_of_write(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import csv\nfrom csv import writer\n"
        "open('a')\npath.open('w')\npath.write_text('x')\npath.write_bytes(b'x')\nos.open('a', 1)\n"
    )
    assert file_writes(source) == [
        "sample.py:1 import csv",
        "sample.py:2 from csv import",
        "sample.py:3 open",
        "sample.py:4 open",
        "sample.py:5 write_text",
        "sample.py:6 write_bytes",
        "sample.py:7 open",
    ]
