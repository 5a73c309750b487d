"""Traced stand-in for ``python -m graphinverse``, used by the cli workload
with --trace 1.

    PYTHONPATH=src python3 perfbench/child.py TRACE_OUT SUBCOMMAND ARGS...

Times the import of graphinverse.cli, runs cli.main on the arguments with
every traced function wrapped, writes the tracer's totals to TRACE_OUT
as JSON and exits with main's code.
"""

import sys
import time

t0 = time.perf_counter()
import graphinverse.cli  # noqa: E402
import_s = time.perf_counter() - t0

import json  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.samples["cli.import_ms"] = [import_s * 1e3]
    with tracer.installed():
        code = tracer.wrap(f"cli.main.{argv[0]}", graphinverse.cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
