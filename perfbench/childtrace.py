"""Entry point of a traced CLI subprocess: binomid's console main under the
tracer, with the spans written to $PERFBENCH_SPANS when the process ends."""

import os
import sys

from tracing import Tracer


def main() -> None:
    tracer = Tracer()
    tracer.install()
    from binomid import cli
    try:
        rc = cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])
    sys.exit(rc)
