"""Request generation and the output oracle for the three workloads.

Every request is made during set-up, from the workload seed, and relalg sees
only what is generated here: argv lists, JSON files written under the
benchmark's work directory, and library arguments.  No two requests of a run
are identical.

The cost of a free-carrier check depends heavily on the random trees it
samples: with the chain seeds themselves drawn from the workload seed, the
wall time of a 60-chain session on the reference machine varied by +-12% from
one workload seed to the next, more than any bound the benchmark could keep.  So the tree work of
``free-session`` and ``free-cli`` comes from a fixed pool (``POOL_SEED``) that
every workload seed shares.  The workload seed decides the decoration
letters (which change every tree label and so every output byte, but not the
amount of work), the order of the independent ``free-cli`` requests and, on
``finite-cli``, the scalars, mutation sites, morphism maps and order.

Every request carries its expected outcome, computed here from its input
sizes: the exit status, the instance count the reports state, and whether a
counterexample is present.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Fixed seed of the shared content pool; see the module docstring.
POOL_SEED = 2003_11127

# Requests per second of --seconds, calibrated so that the timed phase lasts
# about --seconds on the reference machine (Intel Xeon, 2 cores, Python
# 3.11.7).  The amount of work is fixed by --seconds, not by the clock, so a
# faster commit finishes sooner instead of doing more, different work.
CHAINS_PER_SECOND = 3.0
FREE_CLI_PER_SECOND = 14.0
FINITE_ROUNDS_PER_SECOND = 2.0

MAX_VERTICES = 6
SESSION_SAMPLES = 1
CHAIN = ("RelAssoc", "RelPreLie", "RelLie")
# Letters for tree decorations; "e" is reserved for the empty tree and "a",
# "b" name the matching dimonoid's elements.
LETTERS = "pqrsuvwxyz"

# Index-variable counts of each suite's equations: a suite verifies
# samples * sum(|I| ** n) instances on a free carrier over an index set I.
FREE_SUITE_INDEX_VARS = {
    "DimonoidDendriform": (2, 2, 2),
    "FamDendriform": (2, 2, 2),
    "RelDendriform": (3, 3, 3),
    "RelAssoc": (3,),
    "RelPreLie": (3,),
    "RelLie": (2, 3),
}

FREE_CLI_KINDS = (
    ("DimonoidDendriform", "--dimonoid", "matching2.json"),
    ("DimonoidDendriform", "--semigroup", "zmod2.json"),
    ("FamDendriform", "--semigroup", "zmod2.json"),
    ("RelDendriform", "--semigroup", "zmod2.json"),
    ("RelAssoc", "--semigroup", "zmod2.json"),
)
FREE_EVAL_EVERY = 8  # one request in eight is a free-eval

ZINBIEL_DEGREES = (5, 7, 9, 11, 13)
DERIVE_DEGREES = (4, 6, 8, 10)
MUTANT_DEGREES = (6, 8, 10, 12)
RB_WINDOWS = range(4, 24)  # used in this order, each at most once per run


@dataclass
class Request:
    key: str
    argv: list = None  # a relalg.cli.main request
    lib: tuple = None  # (suite, samples, seed): free_check on the session carrier
    exit: int = 0
    instances: int = 0
    counterexample: bool = False
    # When set, ``instances`` is only an upper bound (mutants stop at the
    # first counterexample, wherever the scan meets it).
    at_most: bool = False
    # derive requests: write the derived algebra here for a later request
    write_algebra: str = None


def free_instances(suite, samples, index_size):
    return samples * sum(index_size**n for n in FREE_SUITE_INDEX_VARS[suite])


def check_outcome(req, code, payload):
    """Problems with one request's outcome; an empty list means correct.
    ``payload`` is the parsed report document, or None when there is none."""
    if code != req.exit:
        return [f"exit {code}, expected {req.exit}"]
    if payload is None:
        return ["no report document"]
    reports = payload.get("reports", [])
    instances = sum(r["instances"] for r in reports)
    has_ce = any(r["counterexample"] is not None for r in reports)
    problems = []
    if req.at_most:
        if not 1 <= instances <= req.instances:
            problems.append(f"{instances} instances, expected 1..{req.instances}")
    elif instances != req.instances:
        problems.append(f"{instances} instances, expected {req.instances}")
    if has_ce != req.counterexample:
        problems.append(f"counterexample {'present' if has_ce else 'missing'}")
    return problems


# ---------------------------------------------------------------------------
# free-session: one carrier kept across RelAssoc -> RelPreLie -> RelLie chains


def free_session(seed, seconds):
    """Decoration letters for the session carrier, and the request list."""
    pool = random.Random(POOL_SEED)
    chain_seeds = pool.sample(range(10**6), max(1, round(seconds * CHAINS_PER_SECOND)))
    # The chain order stays fixed: with a shared cache, when a heavy chain
    # runs decides how long it takes.  With a seeded order the p90 latency
    # spread 21% over five seeds, against 9% for the wall time.
    decorations = random.Random(seed).sample(LETTERS, 2)
    requests = [
        Request(
            key=f"{suite}/{s}",
            lib=(suite, SESSION_SAMPLES, s),
            instances=free_instances(suite, SESSION_SAMPLES, 2),
        )
        for s in chain_seeds
        for suite in CHAIN
    ]
    return decorations, requests


# ---------------------------------------------------------------------------
# free-cli: independent free-check / free-eval commands, each on a cold carrier


def _tree_text(rng, size, edges):
    """A random tree in relalg's text form over the placeholder labels
    {0}, {1} (filled with the decoration letters later)."""
    label = "{%d}" % rng.randrange(2)
    if size == 1:
        return f"{label}[]"
    k = rng.randrange(size)
    left = f"{rng.choice(edges)}: {_tree_text(rng, k, edges)}" if k else ""
    right = f"{rng.choice(edges)}: {_tree_text(rng, size - 1 - k, edges)}" if size - 1 - k else ""
    return f"{label}[{left}, {right}]"


def _expression(rng, on_matching):
    edges = ["a", "b"] if on_matching else ["0", "1"]
    ops = ("prec", "succ") if on_matching else ("prec", "succ", "mul", "circ", "bracket")

    def call(depth):
        op = rng.choice(ops)
        idx = rng.choice(edges) if op in ("prec", "succ") else f"{rng.choice(edges)},{rng.choice(edges)}"
        args = []
        for _ in range(2):
            if depth and rng.random() < 0.3:
                args.append(call(depth - 1))
            else:
                args.append(_tree_text(rng, 1 + rng.randrange(4), edges))
        return f"{op}({idx}, {args[0]}, {args[1]})"

    expr = call(1)
    if rng.random() < 0.5:
        expr = f"{rng.randrange(1, 5)}/{rng.randrange(1, 5)} * {expr} + {_tree_text(rng, 1 + rng.randrange(3), edges)}"
    return expr


def free_cli(seed, seconds, data_dir):
    pool = random.Random(POOL_SEED)
    rng = random.Random(seed)
    requests = []
    count = max(2, round(seconds * FREE_CLI_PER_SECOND))
    for i, request_seed in enumerate(pool.sample(range(10**6), count)):
        letters = rng.sample(LETTERS, 2)
        decorations = ["--decorations", ",".join(letters)]
        if i % FREE_EVAL_EVERY == FREE_EVAL_EVERY - 1:
            on_matching = pool.random() < 0.3
            expr = _expression(pool, on_matching).format(*letters)
            source = ["--dimonoid", str(data_dir / "matching2.json")] if on_matching else [
                "--semigroup", str(data_dir / "zmod2.json")]
            requests.append(Request(
                key=f"eval/{expr}",
                argv=["free-eval", "--expr", expr, *source, *decorations],
            ))
            continue
        suite, flag, name = FREE_CLI_KINDS[pool.randrange(len(FREE_CLI_KINDS))]
        samples = pool.randint(2, 6)
        requests.append(Request(
            key=f"{suite}/{name}/{samples}/{request_seed}/{letters}",
            argv=["free-check", "--suite", suite, flag, str(data_dir / name), "--samples",
                  str(samples), "--max-vertices", str(MAX_VERTICES), "--seed", str(request_seed),
                  *decorations],
            instances=free_instances(suite, samples, 2),
        ))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# finite-cli: exhaustive scans on finite and windowed carriers


def _rationals(limit):
    values = {Fraction(p, q) for p in range(1, limit + 1) for q in range(1, limit + 1)}
    values.discard(Fraction(1))
    return sorted(values) + sorted(-v for v in values)


def _scaled_zinbiel(zinbiel_doc, scale):
    """The truncated-integration zinbiel algebra with its product times
    ``scale``; the zinbiel identity is homogeneous of degree two in the
    product, so the scaled algebra is again zinbiel."""
    doc = json.loads(json.dumps(zinbiel_doc))
    for key, block in doc["ops"]["ast"].items():
        doc["ops"]["ast"][key] = [
            [[_fmt(Fraction(c) * scale) for c in row] for row in plane] for plane in block
        ]
    return doc


def _fmt(value):
    return f"{value.numerator}/{value.denominator}"


def finite_cli(seed, seconds, data_dir, work_dir, zinbiel_doc):
    """``zinbiel_doc(degree)`` gives relalg's dumped truncated-integration
    zinbiel algebra of that degree; the generated files go to ``work_dir``.

    A round has two large scans (a zinbiel check, a derived dendriform
    check), half a Rota-Baxter check, and five small requests (the derive,
    two mutants, two morphisms).  Two thirds of the requests are small, so
    the median latency falls well inside the small ones rather than in the
    gap between the two groups."""
    rng = random.Random(seed)
    # The mutation sites decide how far a mutant's scan runs, so they come
    # from the shared pool, like the degrees; the seed picks the factors.
    sites = random.Random(POOL_SEED)
    scalars = _rationals(12)
    factors = _rationals(4)
    scales = {d: rng.sample(scalars, len(scalars))
              for d in set(ZINBIEL_DEGREES + DERIVE_DEGREES + MUTANT_DEGREES)}
    morphism_maps = rng.sample([Fraction(1), Fraction(-1)] + scalars, len(scalars) + 2)
    windows = list(RB_WINDOWS)[::-1]
    sign_twisted = _load(data_dir / "cocycle_algebra.json")
    files = {}

    def write(name, doc):
        files[name] = doc
        return str(work_dir / name)

    def zinbiel(d):
        scale = scales[d].pop()
        return scale, _scaled_zinbiel(zinbiel_doc(d), scale)

    units = []  # requests that must run in this order; units are shuffled
    rounds = max(1, round(seconds * FINITE_ROUNDS_PER_SECOND))
    for r in range(rounds):
        # the zinbiel suite on a scaled truncated-integration algebra
        d = ZINBIEL_DEGREES[r % len(ZINBIEL_DEGREES)]
        scale, doc = zinbiel(d)
        units.append([Request(
            key=f"zinbiel/{d}/{scale}",
            argv=["check-algebra", "--algebra", write(f"zinbiel-{r}.json", doc),
                  "--suite", "RelZinbiel"],
            instances=(d + 1) ** 3,
        )])
        # derive the dendriform algebra, then check it
        d = DERIVE_DEGREES[r % len(DERIVE_DEGREES)]
        scale, doc = zinbiel(d)
        derived = str(work_dir / f"derived-{r}.json")
        units.append([
            Request(
                key=f"derive/{d}/{scale}",
                argv=["derive", "--construction", "dend-from-zinbiel",
                      "--algebra", write(f"derive-source-{r}.json", doc)],
                write_algebra=derived,
            ),
            Request(
                key=f"derived/{d}/{scale}",
                argv=["check-algebra", "--algebra", derived, "--suite", "RelDendriform"],
                instances=3 * (d + 1) ** 3,
            ),
        ])
        for j in range(2):
            # a single-constant mutant: scaling the constant of t^m * t^n
            # with n >= 1 breaks the identity at x = t^m, y = t^0, z = t^(n-1)
            d = MUTANT_DEGREES[(2 * r + j) % len(MUTANT_DEGREES)]
            scale, doc = zinbiel(d)
            m = sites.randrange(d - 1)
            n = sites.randint(1, d - 1 - m)
            factor = rng.choice(factors)
            block = next(iter(doc["ops"]["ast"].values()))
            block[m][n][m + n + 1] = _fmt(Fraction(block[m][n][m + n + 1]) * factor)
            units.append([Request(
                key=f"mutant/{d}/{scale}/{m}/{n}/{factor}",
                argv=["check-algebra", "--algebra", write(f"mutant-{r}-{j}.json", doc),
                      "--suite", "RelZinbiel"],
                exit=1,
                instances=(d + 1) ** 3,
                counterexample=True,
                at_most=True,
            )])
            # a character-like morphism family on the sign-twisted algebra:
            # f_0 = 1, f_1 = k preserves the product iff k * k = 1
            k = morphism_maps.pop()
            path = write(f"morphism-{r}-{j}.json", {
                "source": sign_twisted, "target": sign_twisted,
                "maps": {"0": [["1/1"]], "1": [[_fmt(k)]]},
            })
            units.append([Request(
                key=f"morphism/{k}",
                argv=["check-morphism", "--morphism", path, "--suite", "RelAssoc"],
                exit=0 if k * k == 1 else 1,
                instances=4,
                counterexample=k * k != 1,
            )])
        # the Rota-Baxter identity on the reciprocal family, every other round
        if r % 2 == 0 and windows:
            n = windows.pop()
            units.append([Request(
                key=f"rb/{n}",
                argv=["check-rb", "--rb", str(data_dir / "rb_reciprocal.json"),
                      "--window", str(n)],
                instances=n * n,
            )])
    units.extend([req] for req in _data_requests(data_dir, write))
    rng.shuffle(units)
    return [req for unit in units for req in unit], files


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _semigroup_instances(doc):
    n = len(doc["elements"])
    return n**3 + (2 * n if doc.get("unit") is not None else 0) + (n * n if doc.get("commutative") else 0)


def _data_requests(data_dir, write):
    """Each command on the shipped fixtures, once per run."""
    zmod2 = _load(data_dir / "zmod2.json")
    trivial = _load(data_dir / "trivial_a.json")
    matching = _load(data_dir / "matching2.json")
    cocycle = _load(data_dir / "cocycle_sign.json")
    algebra = _load(data_dir / "cocycle_algebra.json")
    zinbiel8 = _load(data_dir / "zinbiel8.json")
    n_alg = len(algebra["semigroup"]["elements"])
    mutant = json.loads(json.dumps(algebra))
    mutant["ops"]["mul"]["(0,1)"] = [[["-1/1"]]]  # flip the sign of one constant
    mutant_path = write("cocycle-algebra-mutant.json", mutant)
    return [
        Request(key="data/check-semigroup/zmod2",
                argv=["check-semigroup", "--semigroup", str(data_dir / "zmod2.json")],
                instances=_semigroup_instances(zmod2)),
        Request(key="data/check-semigroup/trivial_a",
                argv=["check-semigroup", "--semigroup", str(data_dir / "trivial_a.json")],
                instances=_semigroup_instances(trivial)),
        Request(key="data/check-dimonoid/matching2",
                argv=["check-dimonoid", "--dimonoid", str(data_dir / "matching2.json")],
                instances=5 * len(matching["elements"]) ** 3),
        Request(key="data/check-cocycle/cocycle_sign",
                argv=["check-cocycle", "--cocycle", str(data_dir / "cocycle_sign.json")],
                instances=len(cocycle["elements"]) ** 3),
        Request(key="data/check-algebra/cocycle_algebra",
                argv=["check-algebra", "--algebra", str(data_dir / "cocycle_algebra.json"),
                      "--suite", "RelAssoc"],
                instances=algebra["dim"] ** 3 * n_alg**3),
        Request(key="data/check-algebra/zinbiel8",
                argv=["check-algebra", "--algebra", str(data_dir / "zinbiel8.json"),
                      "--suite", "RelZinbiel"],
                instances=zinbiel8["dim"] ** 3),
        Request(key="data/collapse/cocycle_algebra",
                argv=["collapse", "--algebra", str(data_dir / "cocycle_algebra.json"),
                      "--suite", "RelAssoc"],
                instances=(algebra["dim"] * n_alg) ** 3),
        Request(key="data/check-algebra/cocycle_algebra-mutant",
                argv=["check-algebra", "--algebra", mutant_path, "--suite", "RelAssoc"],
                exit=1, instances=algebra["dim"] ** 3 * n_alg**3, counterexample=True,
                at_most=True),
    ]
