"""Run `pda` with layer tracing: clishim.py SPANS_FILE OP_NAME ARGS...

Same as `python -m pdakit.cli ARGS...`, with the library layers wrapped by
tracing.Tracer; the spans are written to SPANS_FILE when the command ends.
"""

import sys
from pathlib import Path

from tracing import Tracer

import pdakit.cli


def main() -> int:
    spans_path, op, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op)
    try:
        return pdakit.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
