"""Set-up cost as a command-line user pays it, in a fresh interpreter.

Reads a JSON list of [curve source, [t0, t1]] on stdin, imports
``dualcurves`` and ``dualcurves.cli``, compiles every curve, and prints
{"import_s": ..., "compile_s": ...} as one JSON line.  The caller times
the whole process from the outside and puts ``src`` on PYTHONPATH.
"""

import json
import sys
import time

start = time.perf_counter()
import dualcurves  # noqa: E402
import dualcurves.cli  # noqa: E402,F401

imported = time.perf_counter()
for source, domain in json.load(sys.stdin):
    dualcurves.compile_curve(source, tuple(domain))
compiled = time.perf_counter()
print(json.dumps({"import_s": imported - start, "compile_s": compiled - imported}))
