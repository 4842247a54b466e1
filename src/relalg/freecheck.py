"""Axiom checks and derived operation bundles on the free tree carrier."""

from dataclasses import replace

from .axioms import SUITES, check_axioms
from .constructions import family_to_pair, require_commutative
from .errors import ContractError
from .freedend import SampledTreeDomain
from .ops import OpCarrier, PairIndexedOp

FREE_SUITES = (
    "DimonoidDendriform",
    "FamDendriform",
    "RelDendriform",
    "RelAssoc",
    "RelPreLie",
    "RelLie",
)


def free_pair_ops(carrier):
    """Pair-indexed prec/succ on the free carrier, via the family lifting;
    needs a semigroup-form dimonoid."""
    prec_fam, succ_fam = carrier.family_ops()
    return family_to_pair("prec", prec_fam), family_to_pair("succ", succ_fam)


# role -> the signed graftings (k, kind, s, t, index) of the derived product
# at (a, b)(x, y): assoc_from_dend, prelie_from_dend and lie_from_prelie
# expanded over the family lifting, where prec reads b and succ reads a
DERIVED_OPS = {
    "mul": lambda a, b, x, y: ((1, "succ", x, y, a), (1, "prec", x, y, b)),
    "circ": lambda a, b, x, y: ((1, "succ", x, y, a), (-1, "prec", y, x, a)),
    "bracket": lambda a, b, x, y: (
        (1, "succ", x, y, a), (-1, "prec", y, x, a), (-1, "succ", y, x, b), (1, "prec", x, y, b)
    ),
}


def free_derived_op(carrier, role):
    """The derived operation on the free carrier, one graft sum per product,
    refused where its construction is: a term grafting y onto x reads its
    arguments out of order and needs a commutative index (circ, bracket)."""
    index = carrier.family_ops()[0].index  # refuses a dimonoid not in semigroup form
    terms = DERIVED_OPS[role]
    if any(s == "y" for _, _, s, _, _ in terms(0, 0, "x", "y")):
        require_commutative(index)
    return PairIndexedOp(index, lambda a, b, x, y: carrier.graft_sum(terms(a, b, x, y)))


def free_suite_carrier(carrier, suite_name):
    """The operations on the free carrier for a suite of ``FREE_SUITES``, read
    off the suite: at one index prec/succ over the dimonoid or the semigroup,
    at two each role's ``DERIVED_OPS`` sum or else the lifted prec/succ."""
    if suite_name not in FREE_SUITES:
        raise ContractError(
            f"suite {suite_name!r} is not available on free carriers "
            f"(choose from {', '.join(FREE_SUITES)})"
        )
    suite = SUITES[suite_name]
    if suite.op_arity == 1:
        ops = carrier.dimonoid_ops() if suite.index_kind == "dimonoid" else carrier.family_ops()
    elif suite.roles[0] in DERIVED_OPS:
        ops = [free_derived_op(carrier, role) for role in suite.roles]
    else:
        ops = free_pair_ops(carrier)
    return OpCarrier(ops[0].index, dict(zip(suite.roles, ops)))


def free_check(carrier, suite_name, samples=200, max_vertices=6, seed=0):
    """Run a suite over seeded random tree tuples and all index tuples."""
    opc = free_suite_carrier(carrier, suite_name)
    domain = SampledTreeDomain(carrier, samples, max_vertices, seed)
    report = check_axioms(opc, suite_name, domain, check_name=f"free-check:{suite_name}")
    info = {
        **report.info,
        "samples": samples,
        "max_vertices": max_vertices,
        "seed": seed,
        "decorations": list(carrier.decorations),
        "index_elements": list(opc.index.elements),
    }
    return replace(report, info=info)
