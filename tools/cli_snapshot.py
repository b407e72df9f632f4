"""Snapshot of the CLI's output on a fixed set of invocations.

Runs every command of `hopfforge`, in text and json format, on each of
25 targets: the builtins B:0, B:1, B:-2, B:1/2, E, U:heisenberg and
U:nonabelian2, seven builtin subalgebras, the four `bench/data` files, the
five `tests/data` files (weyl, not_coassociative and wrong_antipode fail
the bialgebra or Hopf axioms) and the two `tests/data/unparsable`
files (exit 2: one is not UTF-8, one has a parse error); 8 x 2 x 25 = 400
invocations, each in a fresh interpreter.  The result is one JSON object
{argv: [stdout, stderr, exit code]} with sorted keys, so two trees are
compared with `cmp`:

    python3 tools/cli_snapshot.py before.json --root <other checkout>
    python3 tools/cli_snapshot.py after.json
    cmp before.json after.json

`--root` selects the checkout whose `src/` is run (default: this one);
the data files are always read from this checkout, so both runs see the
same inputs and the same argv.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOBS = 2  # interpreters run at once

COMMANDS = ("verify", "signature", "lantern", "coideal", "antipode-order",
            "nakayama", "numerology", "report")
BUILTINS = ("B:0", "B:1", "B:-2", "B:1/2", "E", "U:heisenberg",
            "U:nonabelian2")
SUBS = (("B:1", "L:inf"), ("B:1", "R:inf"), ("B:1", "L:1/2"),
        ("B:1", "R:-2"), ("B:1", "g_alpha:3"), ("B:1", "g_inf"),
        ("E", "T"))
FILES = ("bench/data/b_half.hopf", "bench/data/e_solved.hopf",
         "bench/data/heisenberg.hopf", "bench/data/negative_control.hopf",
         "tests/data/b_lambda.hopf", "tests/data/bad_overlap.hopf",
         "tests/data/not_coassociative.hopf", "tests/data/weyl.hopf",
         "tests/data/wrong_antipode.hopf",
         "tests/data/unparsable/not_utf8.hopf",
         "tests/data/unparsable/parse_error.hopf")


def invocations() -> list[list[str]]:
    targets = ([["--builtin", b] for b in BUILTINS]
               + [["--builtin", b, "--sub", s] for b, s in SUBS]
               + [[path] for path in FILES])
    return [[cmd, *target, "--format", fmt]
            for target in targets for cmd in COMMANDS
            for fmt in ("text", "json")]


def run_one(argv: list[str], src: str) -> list:
    # no bytecode cache is left in the checkout measured (it would skew
    # later cold-start timings of that tree)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", "from hopfforge.cli import main; main()", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return [proc.stdout, proc.stderr, proc.returncode]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("output", help="where to write the JSON snapshot")
    p.add_argument("--root", default=ROOT,
                   help="checkout whose src/ is run (default: this one)")
    args = p.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    runs = invocations()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda a: run_one(a, src), runs))
    snapshot = {" ".join(a): r for a, r in zip(runs, results)}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"{len(snapshot)} invocations written to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
