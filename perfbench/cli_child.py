"""Run one cslbounds CLI command under the tracer.

    python cli_child.py TRACE_PATH OP_ID <cli arguments...>

Installs the tracer before the command runs, so config loading, the
computation, file writes and SVG rendering are all recorded, then writes
the spans to TRACE_PATH (gzipped JSON) and exits with the command's code.
"""

import sys

from tracer import Tracer


def main():
    trace_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from cslbounds import cli
    tracer = Tracer()
    tracer.op = op_id
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
