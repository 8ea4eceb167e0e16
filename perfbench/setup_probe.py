"""Set-up time of one fresh interpreter: import a zii module, build the families.

Usage: python3 perfbench/setup_probe.py MODULE   (with src/ on PYTHONPATH)
Prints the seconds from before the import until every built-in family
exists, as measured inside this process.
"""

import sys
import time

start = time.perf_counter()
import importlib

importlib.import_module(sys.argv[1])
from zii.measures import BUILTIN_FAMILIES

families = [make() for make in BUILTIN_FAMILIES.values()]
print(repr(time.perf_counter() - start))
