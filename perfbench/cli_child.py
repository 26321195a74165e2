"""Run one koblab CLI command with the tracer installed.

Usage: python perfbench/cli_child.py SUMMARY_JSON SPANS_JSONL OP_ID -- ARGS...

Behaves like ``python -m koblab.cli ARGS...`` (same exit code), and writes
the tracer's totals and spans for the runner to merge.
"""

import json
import os
import sys

import tracing


def main() -> int:
    summary_path, spans_path, op_id, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(f"usage: {__doc__}")
    import koblab.cli

    tracer = tracing.Tracer()
    tracer.op_id = int(op_id)
    tracer.install()
    try:
        code = koblab.cli.main(args)
    finally:
        with open(summary_path, "w") as handle:
            json.dump(tracer.summary(), handle)
        with open(spans_path, "w") as handle:
            tracer.write_spans(handle, os.getpid())
    return code


if __name__ == "__main__":
    sys.exit(main())
