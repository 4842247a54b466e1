"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size, untraced and traced, and checks
that no request fails and that the printed metrics are exactly the ones
``BENCHMARK.json`` lists.  Then plants wrong expectations (a valid input
marked as a mutant, a wrong report digest) and checks that the oracle counts
each as failed.
"""

import contextlib
import dataclasses
import io
import json
import sys

import run

SECONDS = 1


def last_json_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"{argv}: exit {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = last_json_line(["--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
                                     "--trace", str(trace)])
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == names[trace], (workload, trace, set(result["metrics"]))
        print(f"ok   {workload}: every request verified, traced and untraced")

        _, requests, target = run.setup(workload, 7, SECONDS)
        assert not run.run_pass(target, requests, None).failures  # also writes derived inputs
        valid = next(r for r in requests if r.exit == 0 and r.instances)
        as_mutant = dataclasses.replace(valid, exit=1, counterexample=True, at_most=True)
        assert len(run.run_pass(target, [as_mutant], None).failures) == 1
        wrong_count = dataclasses.replace(valid, instances=valid.instances + 1)
        assert len(run.run_pass(target, [wrong_count], None).failures) == 1
        assert len(run.run_pass(target, [valid], ["0" * run.DIGEST_HEX]).failures) == 1
        assert not run.run_pass(target, [valid], None).failures
        print(f"ok   {workload}: planted wrong expectations are counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
