"""Run one ``repro-facebook`` command with layer spans recorded.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON CLI_ARG...`` with
``src`` on ``PYTHONPATH``.  Installs the wrappers of :mod:`tracing`, calls
``repro.cli.main(CLI_ARG...)`` in this process, writes the spans to
SPANS_JSON and exits with the command's exit code.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
