"""cProfile of one benchmark pass, with relalg imported once.

    python tests/profile_pass.py --workload free-cli --seed 0 --seconds 20

Runs ``perfbench/run.py``'s ``setup`` once, so each relalg function has one
code object, and profiles only ``run_pass`` over the requests it made.  Every
request must succeed (and match its recorded report digest, where
``perfbench/digests.json`` holds one), else the script exits with an error.
It prints the functions with the most self time, then the call counts of the
grafting recursion (``_basis_prec``, ``_basis_succ``, ``graft_sum``) and of a
finite algebra's kernel (``kernel``, and ``entry``, its builder, which runs
once per distinct product of a block).  It reads ``perfbench/`` and writes
only what a benchmark run writes under ``perfbench/.out/``.
"""

import argparse
import cProfile
import os
import pstats
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402  (perfbench/run.py)

COUNTED = ("freedend._basis_prec", "freedend._basis_succ", "freedend.graft_sum", "ops.kernel",
           "ops.entry")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    try:
        _, requests, target = run.setup(args.workload, args.seed, args.seconds)
        expected = run.expected_digests(args.workload, args.seed, args.seconds, len(requests))
        profile = cProfile.Profile()
        result = profile.runcall(run.run_pass, target, requests, expected)
    finally:
        shutil.rmtree(run.OUT / "work" / f"{args.workload}-{os.getpid()}", ignore_errors=True)
    print(f"{args.workload}, seed {args.seed}, {args.seconds} s of work: "
          f"{len(requests)} requests, {len(result.failures)} failed")
    if result.failures:
        for key, problems in result.failures[:20]:
            print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)
        return 1
    stats = pstats.Stats(profile)
    stats.sort_stats("tottime").print_stats(25)
    calls = dict.fromkeys(COUNTED, 0)
    for (filename, _, name), (_, total, *_) in stats.stats.items():
        path = Path(filename)
        qualified = f"{path.stem}.{name}"
        if qualified in calls and path.parent == run.SRC / "relalg":
            calls[qualified] += total
    for name, count in calls.items():
        print(f"calls {name:22s} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
