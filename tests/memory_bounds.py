"""Peak memory of a free session, one row per bound.

A row runs RelAssoc, RelPreLie and RelLie on one carrier over Z/2, on seeded
chains at 6 vertices: every report must pass, the carrier must end as the row
states, and the process must peak at no more than the row's bound.  Run each
row in its own process, so its peak is its own:

    PYTHONPATH=src python tests/memory_bounds.py session
    PYTHONPATH=src python tests/memory_bounds.py powers

``session`` is the README's bounded-memory session: 300 chains at samples=1,
with the carrier's tables emptied at least once, under 170 MB (117.5 MB on
Python 3.11.7 on a 2-core Xeon).  ``powers`` takes 5 chains at samples=200:
each check of more than one sample runs on a carrier over a power of the
index, made for the check and dropped when it ends, so the carrier given
holds no tree, under 100 MB (69-70 MB there; 353 MB with every power's
carrier kept)."""

import resource
import sys
from random import Random
from typing import Callable, NamedTuple

from relalg import FreeDendCarrier, cyclic_monoid, dimonoid_from_semigroup, free_check


class Row(NamedTuple):
    chains: int
    samples: int
    bound_mb: int
    refusal: Callable  # carrier -> the failure message, or None
    summary: str  # formatted with the peak and the emptyings


def _never_emptied(carrier):
    if carrier.emptied < 1:
        return "the carrier never emptied its tables: the budget went untested"
    return None


def _holds_trees(carrier):
    if carrier._nodes or carrier._cache:
        return "the carrier given holds trees: a check ran on it, not on its power's carrier"
    return None


ROWS = {
    "session": Row(300, 1, 170, _never_emptied,
                   "300-chain session: peak RSS {peak:.1f} MB, tables emptied {emptied} times"),
    "powers": Row(5, 200, 100, _holds_trees, "5-chain session at 200 samples: peak RSS {peak:.1f} MB"),
}


def run(row):
    carrier = FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))
    for seed in Random(0).sample(range(10**6), row.chains):
        for suite in ("RelAssoc", "RelPreLie", "RelLie"):
            report = free_check(carrier, suite, samples=row.samples, max_vertices=6, seed=seed)
            if not report.passed:
                sys.exit(f"{suite} failed at chain seed {seed}")
    refused = row.refusal(carrier)
    if refused:
        sys.exit(refused)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(row.summary.format(peak=peak_mb, emptied=carrier.emptied))
    if peak_mb > row.bound_mb:
        sys.exit(f"peak RSS {peak_mb:.1f} MB is above {row.bound_mb} MB")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ROWS:
        sys.exit(f"usage: python tests/memory_bounds.py {{{','.join(ROWS)}}}")
    run(ROWS[sys.argv[1]])
