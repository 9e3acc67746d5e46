"""Run the prunedhurwitz CLI once, timed and calibrated from inside.

    python3 perfbench/cli_child.py REPORT TRACE ARG...

behaves as ``python3 -m prunedhurwitz ARG...``: the same stdout, stderr
and exit code.  It calibrates the machine's speed before, during and
after the CLI's own work (importing the package included) and writes
``{"raw_s", "scaled_s", "spans"}`` to the file REPORT as JSON; with
TRACE = 1 the engine layers are traced and ``spans`` holds the spans.
The package is found on PYTHONPATH.
"""

import json
import sys
from time import perf_counter

from spans import Tracer
from speed import Speed


def main() -> int:
    report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    speed = Speed()
    speed.calibrate()  # the first loop in a fresh interpreter runs slow
    speed.calibrate()
    tracer = Tracer()
    start = perf_counter()
    try:
        with speed.sampling():
            from prunedhurwitz.cli import main as cli_main

            if trace:
                with tracer.installed():
                    return cli_main(argv)
            return cli_main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        return exc.code
    finally:  # also when the CLI raises, which then exits 1 with its traceback
        end = perf_counter()
        speed.calibrate()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"raw_s": end - start, "scaled_s": speed.scaled(start, end),
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
