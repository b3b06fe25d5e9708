"""`python -m qconvenc` with the bench tracer installed, for traced cli-cold ops.

    BENCH_USER_WINDOWS=5,10,20 python bench/child.py TRACE_OUT verify code.stab enc.circ

Runs the package's `__main__` with the remaining arguments and writes the
spans, aggregates and counters, with the child's own start, import and
finish times, to TRACE_OUT as JSON.  BENCH_USER_WINDOWS names the window
sizes the op asked for, so conjugation work on them can be told apart.
"""

from time import perf_counter_ns

started = perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import qconvenc.cli  # noqa: E402,F401
from tracing import Tracer  # noqa: E402

imported = perf_counter_ns()
out_path = sys.argv[1]
sys.argv = ["qconvenc", *sys.argv[2:]]
tracer = Tracer()
tracer.user_windows = frozenset(int(w) for w in os.environ["BENCH_USER_WINDOWS"].split(",") if w)
tracer.install()
code = 1
try:
    runpy.run_module("qconvenc", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else 1
finally:
    tracer.restore()
    finished = perf_counter_ns()
    sys.stdout.flush()
    Path(out_path).write_text(
        json.dumps(
            {
                "started": started,
                "imported": imported,
                "finished": finished,
                "spans": tracer.spans,
                "aggregates": tracer.aggregates,
                "counts": tracer.counts,
            }
        ),
        encoding="utf-8",
    )
sys.exit(code)
