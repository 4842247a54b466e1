"""The relalg benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload free-session --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  ``--seconds`` sets how much work the run
does (see ``workloads.py``); on the reference machine the timed phase lasts
about that long.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced pass.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit, the failure ratio and the host.  Outputs of the run (spans,
digests, results, generated inputs) go to ``perfbench/.out/``.
"""

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = HERE / ".out"
DIGESTS = HERE / "digests.json"
DIGEST_HEX = 10

WORKLOADS = ("free-session", "free-cli", "finite-cli")
LAYERS = ("lincomb", "trees", "freedend", "freecheck", "axioms", "ops", "semigroups",
          "constructions", "jsonio", "reports", "exprs", "cli", "samples")
SETUP_REPEATS = 5
# The traced run first times this share of the requests untraced, then all
# of them traced from a fresh state; the ratio of the two times over the
# same requests is trace.overhead_ratio.
PREFIX_SHARE = 0.25
# On the reference machine (a 2-core Intel Xeon VM shared with other
# tenants) the CPU speed drifts by 10-30% over minutes, which moved the raw
# wall time of identical runs by +-20%.  So an untraced run times a
# fixed pure-Python probe (no relalg code) between requests, at most every
# PROBE_EVERY_S, and scales every time it reports by PROBE_NOMINAL_S / mean
# probe time: the times are seconds at the speed at which the probe takes
# PROBE_NOMINAL_S, as on the reference machine.  Request latencies are
# scaled by the probes within PROBE_WINDOW_S of the request, since the tail
# requests are few and the speed drifts within a run too.  The raw times
# are printed as well.
PROBE_NOMINAL_S = 0.0036
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.5


def import_relalg():
    """A fresh import of relalg from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "relalg" or n.startswith("relalg.")]:
        del sys.modules[name]
    modules = {"relalg": importlib.import_module("relalg")}
    for name in LAYERS:
        modules[name] = importlib.import_module(f"relalg.{name}")
    if Path(modules["relalg"].__file__).resolve().parent != SRC / "relalg":
        raise ImportError(f"relalg imported from {modules['relalg'].__file__}, not {SRC}")
    return modules


class SessionTarget:
    """free-session: free_check on one carrier kept across requests."""

    def __init__(self, relalg, decorations):
        self.relalg = relalg
        self.decorations = decorations
        self.reset()

    def reset(self):
        r = self.relalg
        self.carrier = r.FreeDendCarrier(self.decorations, r.dimonoid_from_semigroup(r.cyclic_monoid(2)))

    def call(self, req):
        suite, samples, seed = req.lib
        return self.relalg.free_check(
            self.carrier, suite, samples=samples, max_vertices=workloads.MAX_VERTICES, seed=seed
        )

    @staticmethod
    def outcome(report):
        payload = report.to_payload()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return (0 if report.passed else 1), text, {"reports": [payload]}


class CliTarget:
    """free-cli and finite-cli: relalg.cli.main(argv) with stdout captured."""

    def __init__(self, cli):
        self.cli = cli

    def reset(self):
        pass

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(req.argv)
        return code, out.getvalue()

    @staticmethod
    def outcome(raw):
        code, text = raw
        return code, text, json.loads(text) if text else None


def setup(workload, seed, seconds):
    modules = import_relalg()
    if workload == "free-session":
        decorations, requests = workloads.free_session(seed, seconds)
        target = SessionTarget(modules["relalg"], decorations)
    elif workload == "free-cli":
        requests = workloads.free_cli(seed, seconds, DATA)
        target = CliTarget(modules["cli"])
    else:
        work = OUT / "work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        dumped = {}

        def zinbiel_doc(degree):
            if degree not in dumped:
                algebra = modules["samples"].truncated_integration_zinbiel(degree)
                dumped[degree] = modules["jsonio"].dump_algebra(algebra)
            return dumped[degree]

        requests, files = workloads.finite_cli(seed, seconds, DATA, work, zinbiel_doc)
        for name, doc in files.items():
            with open(work / name, "w") as fh:
                json.dump(doc, fh)
        target = CliTarget(modules["cli"])
    if len({req.key for req in requests}) != len(requests):
        raise RuntimeError("generated requests are not all distinct")
    return modules, requests, target


def _probe_work():
    """Exact-rational accumulation in the style of a LinComb build:
    Fraction products and sums into a dict, then a sorted tuple."""
    size = 0
    for r in range(8):
        acc = {}
        for i in range(1, 60):
            k = (i * 7 + r) % 11
            acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 5 + 1, i % 7 + 1) * Fraction(1, r % 3 + 1)
        size += len(tuple(sorted((b, c) for b, c in acc.items() if c != 0)))
    return size


class Probe:
    """Times of the probe, taken while a phase runs."""

    def __init__(self):
        self.at = []  # when each probe ended
        self.samples = []  # how long it took
        self.last = float("-inf")
        for _ in range(3):  # let the interpreter specialise the probe's bytecode
            _probe_work()

    def due(self):
        return perf_counter() - self.last >= PROBE_EVERY_S

    def run(self):
        start = perf_counter()
        _probe_work()
        self.last = perf_counter()
        self.at.append(self.last)
        self.samples.append(self.last - start)
        return self.last - start

    def scale(self):
        return PROBE_NOMINAL_S / statistics.mean(self.samples)

    def scale_at(self, times):
        """The scale from the probes within PROBE_WINDOW_S of each time."""
        total = [0.0]
        for d in self.samples:
            total.append(total[-1] + d)
        scales = []
        for t in times:
            lo = bisect.bisect_left(self.at, t - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.at, t + PROBE_WINDOW_S)
            scales.append(PROBE_NOMINAL_S * (hi - lo) / (total[hi] - total[lo]) if hi > lo
                          else self.scale())
        return scales


@dataclass
class Pass:
    latencies: list = field(default_factory=list)
    midpoints: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    instances: int = 0
    wall_s: float = 0.0
    mark_s: float = 0.0  # time at which the first ``mark`` requests were done


def run_pass(target, requests, expected, probe=None, tracer=None, mark=None):
    """Send the requests one after another and check every outcome.  Probe
    time is left out of the pass's wall time."""
    result = Pass()
    probe_s = 0.0
    start = perf_counter()
    for i, req in enumerate(requests):
        if probe is not None and probe.due():
            probe_s += probe.run()
        if tracer is not None:
            tracer.request = i
            frame = tracer.enter("bench.request", True)
        t = perf_counter()
        try:
            raw = target.call(req)
        except (Exception, SystemExit) as exc:  # a request that raised is a failed request
            raw = exc
        result.latencies.append(perf_counter() - t)
        result.midpoints.append((t + perf_counter()) / 2)
        if tracer is not None:
            tracer.exit(frame)
        if isinstance(raw, BaseException):
            result.failures.append((req.key, [f"raised {raw!r}"]))
            result.digests.append("-" * DIGEST_HEX)
        else:
            code, text, payload = target.outcome(raw)
            problems = workloads.check_outcome(req, code, payload)
            digest = hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]
            result.digests.append(digest)
            if expected is not None and digest != expected[i]:
                problems.append("report bytes differ from the recorded digest")
            if payload is not None:
                result.instances += sum(r["instances"] for r in payload.get("reports", []))
                if req.write_algebra and "algebra" in payload:
                    with open(req.write_algebra, "w") as fh:
                        json.dump(payload["algebra"], fh)
            if problems:
                result.failures.append((req.key, problems))
        if mark is not None and i + 1 == mark:
            result.mark_s = perf_counter() - start - probe_s
    result.wall_s = perf_counter() - start - probe_s
    return result


def expected_digests(workload, seed, seconds, count):
    """Recorded report digests for this run, or None if none are recorded.
    A recorded list that no longer matches the request list in length is
    returned as blanks, so every request counts as failed."""
    if not DIGESTS.exists():
        return None
    with open(DIGESTS) as fh:
        table = json.load(fh)
    packed = table.get(f"{workload}/{seed}/{seconds}")
    if packed is None:
        return None
    digests = [packed[i:i + DIGEST_HEX] for i in range(0, len(packed), DIGEST_HEX)]
    return digests if len(digests) == count else [""] * count


def high_percentile(latencies):
    """The highest percentile, at most p90, with at least ten samples beyond
    it; returns (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, min(math.ceil(0.9 * n - 1e-9) - 1, n - 11))
    return ordered[index], (index + 1) / n, n


def host():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "relalg").is_dir() or not DATA.is_dir():
        print(f"error: no relalg checkout around {HERE} (need src/relalg and data/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_times = []
    setup_probe = Probe()
    for _ in range(SETUP_REPEATS):
        for _ in range(3):
            setup_probe.run()
        start = perf_counter()
        modules, requests, target = setup(args.workload, args.seed, args.seconds)
        setup_times.append(perf_counter() - start)
    expected = expected_digests(args.workload, args.seed, args.seconds, len(requests))
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}"

    if args.trace == 0:
        probe = Probe()
        run = run_pass(target, requests, expected, probe)
        passes = [run]
        p90, q, n = high_percentile(run.latencies)
        raw = {
            "wall_s": run.wall_s,
            "instances_per_s": run.instances / run.wall_s,
            "request_s.p50": statistics.median(run.latencies),
            "request_s.p90": p90,
            "setup_s": statistics.median(setup_times),
        }
        scale = probe.scale()
        scaled = [lat * f for lat, f in zip(run.latencies, probe.scale_at(run.midpoints))]
        metrics = {
            "wall_s": (raw["wall_s"] * scale, "s"),
            "instances_per_s": (raw["instances_per_s"] / scale, "1/s"),
            "request_s.p50": (statistics.median(scaled), "s"),
            "request_s.p90": (high_percentile(scaled)[0], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (raw["setup_s"] * setup_probe.scale(), "s"),
        }
        notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
        notes["request_s.p90"] += f", p{round(q * 100)} of {n} samples"
        notes["wall_s"] += (f", probe {statistics.mean(probe.samples) * 1000:.3f} ms mean of "
                            f"{len(probe.samples)}, nominal {PROBE_NOMINAL_S * 1000:.1f} ms")
        if not run.failures:
            with open(OUT / f"digests-{args.workload}-{args.seed}-{args.seconds}.txt", "w") as fh:
                fh.write("".join(run.digests))
    else:
        mark = max(1, round(len(requests) * PREFIX_SHARE))
        untraced = run_pass(target, requests[:mark], expected and expected[:mark])
        target.reset()
        tracer = Tracer()
        tracer.install(modules)
        try:
            traced = run_pass(target, requests, expected, tracer=tracer, mark=mark)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = tracer.metrics(traced.wall_s, traced.mark_s / untraced.wall_s)
        notes = {}
        raw = {}
        with open(OUT / f"spans-{tag}.json", "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request"],
                       "spans": tracer.records}, fh)

    shutil.rmtree(OUT / "work" / f"{args.workload}-{os.getpid()}", ignore_errors=True)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    checked = len(requests) if expected is not None else 0
    info = host()
    print(f"relalg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s of work, trace {args.trace}")
    print(f"host: python {info['python']}, cpu {info['cpu']}, nproc {info['nproc']}")
    print(f"requests: {attempted} attempted, {len(failures)} failed, "
          f"failed_ratio {len(failures) / attempted:.4f} (1); "
          f"report digests checked on {checked} of {len(requests)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:.6g} {unit}{note}")
    for key, problems in failures[:20]:
        print(f"FAILED {key}: {'; '.join(problems)}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({**result, "raw": raw, "host": info, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds, "setup_times_s": setup_times},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
