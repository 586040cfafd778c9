"""The README's library example runs as written, and the package namespace
binds exactly the names it imports, plus ``InvariantError``."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import types
from pathlib import Path

import relfa

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(relfa.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _library_block()],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr


def test_package_namespace_is_the_readme_api():
    imported = re.search(r"from relfa import \((.*?)\)", _library_block(), re.S).group(1)
    shown = {name.strip() for name in imported.split(",") if name.strip()}
    public = {name for name, value in vars(relfa).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == shown | {"InvariantError"}
