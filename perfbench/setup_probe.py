"""Time one set-up in a fresh interpreter: import the package, parse documents.

Usage: python3 setup_probe.py DOCS_JSON REF_SAMPLES

DOCS_JSON holds a list of symbol documents.  Parsing validates each symbol
as a self-map of the closed disc.  Prints the elapsed seconds, then the
median pace (pace.py) of REF_SAMPLES runs of the reference work right after,
which rates the machine's speed during the set-up.
"""

import json
import statistics
import sys
import time

with open(sys.argv[1], encoding="utf-8") as fh:
    docs = json.load(fh)

t0 = time.perf_counter()
import disc_ergodics  # noqa: E402

for doc in docs:
    disc_ergodics.parse_symbol(doc)
elapsed = time.perf_counter() - t0

import pace  # noqa: E402

pace.reference_work()  # first-call costs
print(repr(elapsed), repr(statistics.median(pace.reference_paces(int(sys.argv[2])))))
