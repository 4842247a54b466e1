"""Record report digests for the byte-identity check.

Every untraced run with no failed request leaves the digests of its reports
in ``perfbench/.out/digests-<workload>-<seed>-<seconds>.txt``.  On a commit
whose reports are trusted, run the benchmark with the seeds to record and
then

    python3 perfbench/record_digests.py

to merge those made at the run length of ``BENCHMARK.json`` into
``perfbench/digests.json``.  Later runs with the
same workload, seed and --seconds compare every report byte for byte (by
digest) against the recorded ones.
"""

import json
import sys

import run


def main():
    table = {}
    if run.DIGESTS.exists():
        with open(run.DIGESTS) as fh:
            table = json.load(fh)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        run_seconds = str(json.load(fh)["run_seconds"])
    for path in sorted(run.OUT.glob("digests-*.txt")):
        workload, seed, seconds = path.stem[len("digests-"):].rsplit("-", 2)
        if seconds == run_seconds:
            table[f"{workload}/{seed}/{seconds}"] = path.read_text()
    with open(run.DIGESTS, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=0)
        fh.write("\n")
    print(f"{len(table)} runs recorded in {run.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
