"""Set-up probe: a fresh process imports vadiff and loads one workload's inputs.

    probe.py WORKLOAD     (run in the workload's working directory)

Prints {"import_s": ..., "load_s": ...}.  Only the standard library is
loaded before the clock starts.
"""

import json
import sys
import time

import workloads

start = time.perf_counter()
import vadiff  # noqa: E402

imported = time.perf_counter()
workloads.setup_load(sys.argv[1], vadiff)
print(json.dumps({"import_s": imported - start, "load_s": time.perf_counter() - imported}))
