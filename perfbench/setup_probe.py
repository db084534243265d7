"""One cold set-up of the program, as a workload needs it; prints its seconds.

Usage: python3 perfbench/setup_probe.py <workload>   (``src`` on PYTHONPATH)

Set-up is importing ``twistknots`` and loading the family definitions,
registries and diagram templates that the workload uses.
"""

import sys
import time


def main() -> int:
    workload = sys.argv[1]
    start = time.perf_counter()
    if workload == "instance-queries":
        import twistknots.cli  # noqa: F401  (the query processes import the CLI)
    from twistknots.casework import load_registry
    from twistknots.diagrams import load_template
    from twistknots.families import load_family
    for family in ("7_6", "10_58", "8_12"):
        load_family(family)
        if workload in ("paper-casework", "box-sweep"):
            load_registry(family)
        if workload == "oracle-crosscheck":
            load_template(family)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
