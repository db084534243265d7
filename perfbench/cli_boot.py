"""Run one ``twistknots`` command-line query with the benchmark's spans installed.

Usage: python3 perfbench/cli_boot.py <twistknots arguments>

The environment names the span file to write (PERFBENCH_TRACE_OUT), the run
identifier (PERFBENCH_TRACE_RUN), the parent span (PERFBENCH_TRACE_PARENT) and
the operation index (PERFBENCH_TRACE_OP).  ``src`` must be on PYTHONPATH.
"""

import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import twistknots.cli as cli
    import_ms = 1e3 * (time.perf_counter() - start)

    from tracing import Tracer

    tracer = Tracer(os.environ["PERFBENCH_TRACE_RUN"],
                    parent=os.environ.get("PERFBENCH_TRACE_PARENT") or None)
    tracer.op = int(os.environ.get("PERFBENCH_TRACE_OP", "-1"))
    tracer.counts["cli.import_ms"] += import_ms
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_TRACE_OUT"])


if __name__ == "__main__":
    sys.exit(main())
