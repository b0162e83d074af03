"""One fresh-interpreter set-up measurement (started by run.py).

Imports ``repro``, parses and validates the spec in the JSON file named by
the first argument, computes ``code_fingerprint()`` and prints one JSON
line: the ``time.monotonic()`` instant it finished (the parent subtracts
its launch instant) and the import time alone.
"""

import json
import sys
import time

started = time.monotonic()
sys.path.insert(0, sys.argv[2])

from repro.config import parse_spec  # noqa: E402
from repro.store import code_fingerprint  # noqa: E402

imported = time.monotonic()
with open(sys.argv[1], encoding="utf-8") as handle:
    spec = parse_spec(json.load(handle))
code_fingerprint()
print(json.dumps({"end": time.monotonic(), "import_s": imported - started, "spec": spec.name}))
