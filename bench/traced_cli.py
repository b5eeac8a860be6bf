"""Run one CLI command with every measured layer traced.

    python3 bench/traced_cli.py TRACE_FILE CLI_ARG...

The program's ``src`` must be on ``PYTHONPATH``.  The spans are written to
TRACE_FILE when the command returns; the exit code is the command's.
"""

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    from infosearch_eval import cli
    tracer = Tracer()
    install(tracer)
    rc = cli.main(cli_args)
    tracer.dump(trace_file)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
