"""Run one stochgm CLI invocation with every layer traced.

Usage: python3 traced_cli.py SPANS_JSON TRACE_ID <stochgm arguments...>

Installs the wrappers from spans.py, runs stochgm.cli.main under a root
span named cli.main, writes the spans to SPANS_JSON and exits with the
CLI's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main(argv):
    out_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer(trace_id)
    spans.install(tracer)
    from stochgm import cli

    code = tracer.call("cli.main", cli.main, (cli_args,), {})
    with open(out_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
