"""Set-up cost every CLI invocation pays, in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py STATE_CONFIG OUTPUT

Imports ``raman_pairs``, then runs ``state`` on the shipped sodium preset,
which loads the species from its JSON file and builds the first pair state.
Prints one JSON line with the import and first-state times.
"""

import sys
import time

start = time.perf_counter()
import raman_pairs  # noqa: E402
from raman_pairs import cli  # noqa: E402

imported = time.perf_counter()
code = cli.main(["state", "--config", sys.argv[1], "--output", sys.argv[2]])
done = time.perf_counter()

import json  # noqa: E402

print(
    json.dumps(
        {
            "import_s": imported - start,
            "first_state_s": done - imported,
            "module": raman_pairs.__file__,
        }
    )
)
sys.exit(code)
