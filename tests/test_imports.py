"""The package's import footprint."""

import subprocess
import sys
from pathlib import Path

import lightpos

# Prints the third-party packages that importing every lightpos module
# loads beyond numpy and jsonschema, the declared dependencies.
_IMPORT_ALL = """
import importlib, pkgutil, sys
import jsonschema, numpy
before = set(sys.modules)
import lightpos
for module in pkgutil.iter_modules(lightpos.__path__, "lightpos."):
    importlib.import_module(module.name)
print(sorted({name.split(".")[0] for name in set(sys.modules) - before}
             - set(sys.stdlib_module_names)
             - {"lightpos", "numpy", "jsonschema"}))
"""


def test_lightpos_imports_only_numpy_and_jsonschema():
    # A fresh interpreter: this one has loaded whatever other tests use.
    src = str(Path(lightpos.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALL], cwd=src,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
