"""One benchmark set-up in a fresh interpreter.

Imports the CLI, resolves the workload's input expressions and, when asked,
writes the mid-path checkpoint fixture:

    python3 perfbench/prepare.py EXPR... [--fixture PATH --resume-at STEPS]

The fixture is the state of the first EXPR after STEPS rule applications.
Prints the path of the imported ``collatzpath.cli`` so the caller can check
which copy of the package ran.
"""

from __future__ import annotations

import argparse


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("exprs", nargs="+")
    parser.add_argument("--fixture")
    parser.add_argument("--resume-at", type=int, default=0)
    args = parser.parse_args()

    import collatzpath.cli
    from collatzpath.checkpoint import checkpoint_write
    from collatzpath.engine import advance, initial_state
    from collatzpath.expressions import parse_expression

    exprs = [parse_expression(text) for text in args.exprs]
    values = [expr.resolve() for expr in exprs]
    if args.fixture:
        state = advance(initial_state(values[0], origin=exprs[0]), args.resume_at)
        checkpoint_write(args.fixture, state)
    print(collatzpath.cli.__file__)


if __name__ == "__main__":
    main()
