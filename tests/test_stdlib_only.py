"""The package imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

import phrasefix

# run in an isolated interpreter (-I): no user site, no PYTHON* variables
IMPORT_ALL = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import importlib, pkgutil
import phrasefix
for info in pkgutil.iter_modules(phrasefix.__path__):
    importlib.import_module("phrasefix." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(*sorted(loaded - set(sys.stdlib_module_names) - {"phrasefix"}))
"""


def test_every_module_imports_only_the_standard_library():
    root = Path(phrasefix.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_ALL, str(root)],
                          capture_output=True, text=True, encoding="utf-8", check=True)
    assert proc.stdout.split() == []
