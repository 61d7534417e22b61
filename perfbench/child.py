"""Run one ingletonlp command in this fresh process and record its timings.

    python3 perfbench/child.py RESULT_JSON TRACE -- [ingletonlp arguments]

The command's stdout and stderr pass through untouched, and the exit
code is the command's.  RESULT_JSON receives `ready`, the CLOCK_MONOTONIC
reading once `ingletonlp.cli` is imported (that clock is shared by all
processes on Linux, so the parent subtracts its own reading taken just
before spawning), `main_s`, and with TRACE=1 the per-layer metrics of
`spans.layer_metrics`.  With no ingletonlp arguments the process only
imports the package and exits, which times set-up alone.
"""

import sys
import time


def main() -> int:
    from ingletonlp import cli
    ready = time.monotonic()

    import json

    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[4:]
    record = {"ready": ready}
    code = 0
    if argv:
        run = cli.main
        tracer = None
        if trace:
            from spans import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
            run = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter()
        code = run(argv)
        record["main_s"] = time.perf_counter() - t0
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans)
    sys.stdout.flush()
    with open(result_path, "w", encoding="ascii") as f:
        json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
