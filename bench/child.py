"""Run one prefkit command in this process and record how it went.

    python3 bench/child.py --result R.json [--trace] [--as-limit-mb N] -- <prefkit args>

The address-space limit is set first, on this process only, so a memory
blow-up ends as a failed command instead of exhausting a shared machine.
``wall_s`` runs from the call into ``prefkit.cli.main`` to its return;
``peak_rss_mb`` is this process's ``ru_maxrss``.  The result file holds the
exit code, both numbers and, under ``--trace``, the spans.  The process exits
with the command's code.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--as-limit-mb", type=int, default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if args.as_limit_mb:
        limit = args.as_limit_mb * 2**20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    import prefkit.cli

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    start = perf_counter()
    try:
        code = prefkit.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except MemoryError:
        code, error = 4, "MemoryError"
    except Exception:  # recorded as a failed command, with its traceback
        code, error = 5, traceback.format_exc(limit=4)
    wall_s = perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "code": code,
        "error": error,
        "wall_s": wall_s,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "prefkit": prefkit.cli.__file__,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
