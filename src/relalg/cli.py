"""Batch command-line front end.

Every command reads JSON inputs, runs its checks, writes one JSON report
document to stdout (and to --out when given) and a human summary to stderr.
Exit status: 0 all checks passed, 1 a check or one of its preconditions
failed (counterexample in the report), 2 malformed input, 3 contract
violation (wrong index structure, missing roles, non-commutative index for a
commutative-only suite), 4 internal error: a bug in relalg, never a check
outcome (the traceback goes to stderr).
"""

import argparse
import sys
import traceback
from dataclasses import replace
from functools import cache

from . import jsonio
from .axioms import SUITES, check_axioms, check_morphism, check_rota_baxter, finite_domain
# each algebra construction is called through its name here (``_on_algebra``)
from .constructions import (CONSTRUCTIONS, assoc_from_dend, cocycle_twist, collapse,
                            comm_from_zinbiel, dend_from_rb, dend_from_zinbiel, lie_from_prelie,
                            pair_role, poisson_from_prepoisson, prelie_from_dend,
                            zinbiel_from_symmetric_dend)
from .errors import ConstructionRefused, ContractError, MalformedInputError, require
from .exprs import eval_expression
from .freecheck import FREE_SUITES, free_check
from .freedend import FreeDendCarrier
from .lincomb import render_pairs
from .ops import FiniteRelativeAlgebra, materialize_pair_op
from .reports import summary, to_json
from .semigroups import check_cocycle, check_dimonoid, check_semigroup
from .trees import tree_print


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@cache
def _parser():
    """The argument parser, built once: argparse keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="exact checks and constructions for semigroup-indexed algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--out", help="also write the JSON report to this file")
        return p

    p = cmd("check-semigroup", run_check_semigroup, help="associativity, unit and commutativity claims")
    p.add_argument("--semigroup", required=True, metavar="FILE")

    p = cmd("check-dimonoid", run_check_dimonoid, help="the five dimonoid identities")
    p.add_argument("--dimonoid", required=True, metavar="FILE")

    p = cmd("check-cocycle", run_check_cocycle, help="the 2-cocycle identity")
    p.add_argument("--cocycle", required=True, metavar="FILE")

    p = cmd("check-algebra", run_check_algebra, help="run an axiom suite on a finite algebra")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))

    p = cmd("check-rb", run_check_rb, help="the Rota-Baxter family identity")
    p.add_argument("--rb", required=True, metavar="FILE")
    p.add_argument("--window", type=_positive_int, default=20, metavar="N")

    p = cmd("check-morphism", run_check_morphism, help="structure preservation for a map family")
    p.add_argument("--morphism", required=True, metavar="FILE")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))

    p = cmd("derive", run_derive, help="run a named construction, emit the derived algebra")
    p.add_argument("--construction", required=True, choices=sorted(DERIVATIONS))
    p.add_argument("--algebra", metavar="FILE")
    p.add_argument("--cocycle", metavar="FILE")
    p.add_argument("--rb", metavar="FILE")

    p = cmd("collapse", run_collapse, help="flatten a finite algebra to an ordinary one")
    p.add_argument("--algebra", required=True, metavar="FILE")
    p.add_argument("--suite", choices=sorted(SUITES))

    def free_carrier(p):
        """The free carrier's index, exactly one of two files, and its decorations."""
        index = p.add_mutually_exclusive_group(required=True)
        index.add_argument("--dimonoid", metavar="FILE")
        index.add_argument("--semigroup", metavar="FILE")
        p.add_argument("--decorations", default="x,y", metavar="X,Y,...")

    p = cmd("free-eval", run_free_eval, help="evaluate an expression over the free tree carrier")
    p.add_argument("--expr", required=True)
    free_carrier(p)

    p = cmd("free-check", run_free_check, help="sampled axiom checks on the free tree carrier")
    p.add_argument("--suite", required=True, choices=sorted(FREE_SUITES))
    free_carrier(p)
    p.add_argument("--samples", type=_positive_int, default=200, metavar="N")
    p.add_argument("--max-vertices", type=_positive_int, default=6, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="N")

    return parser


def _payload(command, reports, **extra):
    passed, payloads = all(r.passed for r in reports), [r.to_payload() for r in reports]
    return {"command": command, "passed": passed, "reports": payloads, **extra}


def _load_free_carrier(args):
    if args.dimonoid is not None:
        index = jsonio.load_dimonoid(jsonio.load_file(args.dimonoid))
        require(check_dimonoid(index))
    else:
        index = jsonio.load_semigroup(jsonio.load_file(args.semigroup))
        require(check_semigroup(index))
    decorations = [d for d in args.decorations.split(",") if d]
    return FreeDendCarrier(decorations, index)


def _verified(carrier):
    """The carrier, once the index table of a finite algebra passes
    check_semigroup; a builtin's virtual index is left to the windowed check
    that reads it."""
    if isinstance(carrier, FiniteRelativeAlgebra):
        require(replace(check_semigroup(carrier.index), check="axioms:precondition:semigroup"))
    return carrier


def _load_algebra(path):
    return _verified(jsonio.load_algebra(jsonio.load_file(path)))


def run_check_semigroup(args):
    semigroup = jsonio.load_semigroup(jsonio.load_file(args.semigroup))
    return _payload(args.command, [check_semigroup(semigroup)])


def run_check_dimonoid(args):
    dimonoid = jsonio.load_dimonoid(jsonio.load_file(args.dimonoid))
    return _payload(args.command, [check_dimonoid(dimonoid)])


def run_check_cocycle(args):
    cocycle = jsonio.load_cocycle(jsonio.load_file(args.cocycle))
    return _payload(args.command, [check_cocycle(cocycle)])


def run_check_algebra(args):
    alg = _load_algebra(args.algebra)
    report = check_axioms(alg, args.suite, finite_domain(alg))
    return _payload(args.command, [report])


def run_check_rb(args):
    rb = jsonio.load_rota_baxter(jsonio.load_file(args.rb))
    _verified(rb.carrier)
    window = range(1, args.window + 1)
    return _payload(args.command, [check_rota_baxter(rb, window=window)])


def run_check_morphism(args):
    morphism = jsonio.load_morphism(jsonio.load_file(args.morphism))
    _verified(morphism.source)  # the target has an equal index table
    return _payload(args.command, [check_morphism(morphism, args.suite)])


def _require_file(args, attr):
    path = getattr(args, attr)
    if not path:
        raise MalformedInputError(f"construction {args.construction!r} needs --{attr}")
    return path


def _with_materialized(alg, roles, ops):
    return alg.with_ops(
        {role: materialize_pair_op(op, alg.dim) for role, op in zip(roles, ops)}
    )


def _derive_cocycle_twist(args):
    alg = _load_algebra(_require_file(args, "algebra"))
    cocycle = jsonio.load_cocycle(jsonio.load_file(_require_file(args, "cocycle")))
    return cocycle_twist(alg, cocycle)


def _derive_dend_from_rb(args):
    rb = jsonio.load_rota_baxter(jsonio.load_file(_require_file(args, "rb")))
    _verified(rb.carrier)
    if not isinstance(rb.carrier, FiniteRelativeAlgebra):
        raise ContractError(
            "dend-from-rb output can only be materialized over a finite carrier; "
            "use check-rb for the windowed virtual example"
        )
    return _with_materialized(rb.carrier, ("prec", "succ"), dend_from_rb(rb))


def _on_algebra(name):
    """A derivation from a checked --algebra: the construction takes the
    algebra's source roles, each lifted to a pair-indexed one, then its
    domain if it has a hypothesis, and returns each derived role's operation;
    it is called through its module-level name, so a wrapper bound there sees it."""
    (sources, hypothesis, roles, _), function = CONSTRUCTIONS[name], name.replace("-", "_")

    def derive(args):
        alg = _load_algebra(_require_file(args, "algebra"))
        inputs = [pair_role(alg, role) for role in sources]
        if hypothesis is not None:
            inputs.append(finite_domain(alg))
        ops = globals()[function](*inputs)
        return _with_materialized(alg, roles, ops if len(roles) > 1 else [ops])

    return derive


# construction name -> builder of the derived algebra from the parsed arguments
DERIVATIONS = {
    **{name: _on_algebra(name) for name in CONSTRUCTIONS if name != "dend-from-rb"},
    "cocycle-twist": _derive_cocycle_twist,
    "dend-from-rb": _derive_dend_from_rb,
}


def run_derive(args):
    derived = DERIVATIONS[args.construction](args)
    return _payload(
        args.command,
        [],
        construction=args.construction,
        algebra=jsonio.dump_algebra(derived),
    )


def run_collapse(args):
    flat = collapse(_load_algebra(args.algebra))
    reports = []
    if args.suite:
        reports.append(
            check_axioms(
                flat,
                args.suite,
                finite_domain(flat),
                check_name=f"collapse:{args.suite}",
            )
        )
    return _payload(args.command, reports, algebra=jsonio.dump_algebra(flat))


def run_free_eval(args):
    terms = eval_expression(args.expr, _load_free_carrier(args)).to_pairs(tree_print)
    return _payload(args.command, [], expr=args.expr, result=render_pairs(terms), terms=terms)


def run_free_check(args):
    report = free_check(
        _load_free_carrier(args),
        args.suite,
        samples=args.samples,
        max_vertices=args.max_vertices,
        seed=args.seed,
    )
    return _payload(args.command, [report])


def _emit(payload, args):
    text = to_json(payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise MalformedInputError(f"--out {args.out}: {exc.strerror}") from None
    sys.stdout.write(text)
    for report in payload["reports"]:
        print(summary(report), file=sys.stderr)
    if "result" in payload:
        print(payload["result"], file=sys.stderr)


def _run(args):
    """Run the command, write its report out, and return its exit status."""
    try:
        payload = args.run(args)
    except ConstructionRefused as exc:
        payload = _payload(args.command, [exc.report])
    _emit(payload, args)
    return 0 if payload["passed"] else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except MalformedInputError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"error: contract violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # any other exception is a bug, never a counterexample
        print(
            f"error: internal error (a bug, never a check outcome): {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
