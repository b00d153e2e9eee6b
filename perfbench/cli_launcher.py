"""Traced stand-in for ``python -m zerocount``.

Usage: ``python perfbench/cli_launcher.py SPANS_PATH ARGS...`` with
``zerocount`` importable. Installs the tracing wrappers, runs
``zerocount.cli.main(ARGS)`` inside a ``cli.main.<subcommand>`` span, writes
the spans and this process's layer numbers to SPANS_PATH and exits with the
CLI's own exit code.
"""

from __future__ import annotations

import sys

import tracing


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from zerocount import cli

    code = tracer.spanned(f"cli.main.{args[0]}", cli.main)(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
