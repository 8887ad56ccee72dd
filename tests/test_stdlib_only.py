"""The package runs on the standard library alone: no runtime dependencies.

Importing it also stays cheap: every command pays the import first.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hankelideals"


def test_every_absolute_import_is_from_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"


def test_importing_the_cli_skips_code_generation_and_process_pools():
    # a fresh interpreter, since this one has long imported everything;
    # pytest's own `pythonpath` setting does not reach it
    avoided = ["dataclasses", "concurrent.futures", "multiprocessing"]
    probe = f"import sys, hankelideals.cli; print([m for m in {avoided!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
