"""Time path_length in process on catalog ranks, for one checkout or several side by side.

    python3 tools/time_path_length.py --ranks 28,31,32,35 --repeats 5 SRC [SRC ...]
    python3 tools/time_path_length.py --ranks 36 --budget 2000000 SRC [SRC ...]

Each SRC is the src directory of a checkout.  Every timing runs in a fresh
interpreter pinned to one CPU and times one path_length(2**n - 1) call
with perf_counter; with --budget B it times advance to halt in B-step
budgets instead, the loop of a checkpointed pathlen without its writes.
With several checkouts the order rotates from one repeat to the next, so
that a slow stretch on a shared host falls on each of them alike.  Each
SRC argument is its own row, so one checkout named twice is an A/A
control: the spread two copies of the same code show beside an A/B
verdict.  Prints one JSON object: the machine record, the command, and
for every rank and SRC argument the PathResult fields, every time in
seconds and their median.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys

CHILD = """
import json, sys, time
from collatzpath import advance, catalog_entry, initial_state, path_length
n = catalog_entry(int(sys.argv[1])).exponent
budget = int(sys.argv[2])
x = (1 << n) - 1
start = time.perf_counter()
if budget:
    result = initial_state(x)
    while not result.halted:
        result = advance(result, budget)
    d = result.steps
else:
    result = path_length(x)
    d = result.d
seconds = time.perf_counter() - start
print(json.dumps({"n": n, "seconds": seconds, "d": d, "odd_steps": result.odd_steps,
                  "even_steps": result.even_steps, "peak_bit_length": result.peak_bit_length}))
"""


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpus_total": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def time_once(src: str, rank: int, budget: int, cpu: int) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(rank), str(budget)],
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("srcs", nargs="+", metavar="SRC")
    parser.add_argument("--ranks", required=True, help="comma-separated catalog ranks")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--budget", type=int, default=0,
                        help="time advance to halt in budgets of this many steps (default: one path_length)")
    args = parser.parse_args(argv)
    ranks = [int(r) for r in args.ranks.split(",")]
    srcs = args.srcs
    cpu = max(os.sched_getaffinity(0))
    rows = []
    for rank in ranks:
        # One list per SRC argument, so a tree named twice is two rows.
        runs = [[] for _ in srcs]
        for repeat in range(args.repeats):
            shift = repeat % len(srcs)
            for i in [*range(shift, len(srcs)), *range(shift)]:
                runs[i].append(time_once(srcs[i], rank, args.budget, cpu))
        for src, timed in zip(srcs, runs):
            fields = {key: timed[0][key] for key in timed[0] if key != "seconds"}
            if any({key: t[key] for key in fields} != fields for t in timed):
                raise SystemExit(f"rank {rank}: {src} gave different results across repeats")
            seconds = [t["seconds"] for t in timed]
            rows.append({"rank": rank, "src": src, **fields,
                         "seconds": seconds, "median_s": statistics.median(seconds)})
    command = " ".join(["python3", "tools/time_path_length.py", *argv])
    print(json.dumps({"machine": machine(), "command": command, "rows": rows}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
