"""Check one benchmark record, the last line of ``perfbench/run.py``'s
output, read from stdin.

Usage: ``python3 .github/check_bench_record.py TRACE`` with TRACE the
run's ``--trace`` value. Exits non-zero unless the line parses as JSON,
reports ``"correct": true`` and holds a finite value for every metric
BENCHMARK.json lists for that mode (``per_layer`` when traced, else
``end_to_end``).
"""

import json
import math
import sys

mode = "per_layer" if sys.argv[1] == "1" else "end_to_end"
record = json.loads(sys.stdin.read())
values = record["metrics"]
listed = [m["name"] for m in json.load(open("BENCHMARK.json"))[mode]]
missing = [name for name in listed if name not in values]
bad = [name for name in listed
       if name in values and not math.isfinite(values[name]["value"])]
correct = record["correct"]
if correct is not True or missing or bad:
    sys.exit(f"bad {mode} record: correct={correct} "
             f"missing={missing} non-finite={bad}")
