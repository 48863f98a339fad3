"""Run one gammagroups command with the layer wrappers of tracing.py.

    python3 perfbench/traced_cli.py TRACE_OUT OP_ID ARGV...

Imports the package (timed as the import cost), installs the wrappers,
calls `gammagroups.cli.main(ARGV)` and, however it ends, writes the
operation's per-layer counters and spans to TRACE_OUT as JSON.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.process_time()  # CPU time, like the spans (see tracing.py)
    import gammagroups.cli as cli
    import_s = time.process_time() - start
    tracer = Tracer(op_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, **tracer.summary()}, handle)


if __name__ == "__main__":
    sys.exit(main())
