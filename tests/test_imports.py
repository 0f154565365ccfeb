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


# Prints whether a fresh ``import lightpos`` loads importlib.metadata.
_IMPORT_METADATA = """
import sys
before = set(sys.modules)
import lightpos
print("importlib.metadata" in set(sys.modules) - before)
"""


def _run_fresh(script: str) -> str:
    # A fresh interpreter: this one has loaded whatever other tests use.
    src = str(Path(lightpos.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def test_lightpos_imports_only_numpy_and_jsonschema():
    assert _run_fresh(_IMPORT_ALL) == "[]"


def test_import_loads_no_importlib_metadata():
    # The version is written in the package, not looked up in installed
    # metadata: a source tree reports the same version as an install, and
    # the import skips importlib.metadata.
    assert _run_fresh(_IMPORT_METADATA) == "False"
