"""Traced twin of ``python -m bchromatic.cli`` for the cli-cold workload.

    python3 bench/cold_child.py SPANS.json ARGV...

Imports the package (PYTHONPATH=src), wraps its functions with
spans.Tracer, runs ``bchromatic.cli.main(ARGV)`` and writes the spans to
SPANS.json.  perf_counter reads the system-wide monotonic clock on Linux,
so the parent can nest these spans under its own root span.
"""

import json
import sys

import spans as sp

if __name__ == "__main__":
    import bchromatic.cli

    tracer = sp.Tracer()
    tracer.install()
    try:
        code = bchromatic.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(sys.argv[1], "w") as fh:
            json.dump([[n, s, e, p + 1, note] for n, s, e, p, note in tracer.spans], fh)
    sys.exit(code)
