"""One outerspine CLI call under the tracer.

Usage: python3 outerbench/traced_cli.py TRACE_JSON CALL_ID CLI_ARGS...

Runs ``outerspine.cli.main`` in this process with the tracer installed,
writes the call's spans and summary to TRACE_JSON, and exits with the CLI's
exit code.  The CLI's stdout is untouched, so its ``--json`` digest can be
compared with an untraced call.
"""

import sys

import outerspine.cli

from tracer import Tracer


def main() -> int:
    out, call_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(call_id)
    tracer.install()
    try:
        rc = outerspine.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
