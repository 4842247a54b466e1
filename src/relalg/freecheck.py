"""Axiom checks and derived operation bundles on the free tree carrier."""

from dataclasses import replace

from . import freedend
from .axioms import SUITES, check_axioms
from .constructions import assoc_from_dend, family_to_pair, lie_from_prelie, prelie_from_dend
from .errors import ContractError
from .ops import OpCarrier

FREE_SUITES = (
    "DimonoidDendriform",
    "FamDendriform",
    "RelDendriform",
    "RelAssoc",
    "RelPreLie",
    "RelLie",
)


def free_pair_ops(carrier):
    """Pair-indexed prec/succ on the free carrier's vectors over ids, via the
    family lifting; needs a semigroup-form dimonoid."""
    prec_fam, succ_fam = carrier.family_ops()
    return family_to_pair("prec", prec_fam), family_to_pair("succ", succ_fam)


# role -> the construction of the derived product from lifted prec/succ
DERIVED_OPS = {
    "mul": assoc_from_dend,
    "circ": prelie_from_dend,
    "bracket": lambda prec, succ: lie_from_prelie(prelie_from_dend(prec, succ)),
}


def free_derived_op(carrier, role):
    """The derived operation on the free carrier's vectors over ids: its
    construction over the lifted prec/succ (which refuses an index as
    anywhere), compiled into one graft sum per product, which it states as
    its ``grafts``."""
    return DERIVED_OPS[role](*free_pair_ops(carrier))


def _free_suite(suite_name):
    """The suite of ``FREE_SUITES`` named ``suite_name``; any other name is refused."""
    if suite_name not in FREE_SUITES:
        raise ContractError(
            f"suite {suite_name!r} is not available on free carriers "
            f"(choose from {', '.join(FREE_SUITES)})"
        )
    return SUITES[suite_name]


def free_suite_carrier(carrier, suite_name):
    """The operations on the free carrier for a suite of ``FREE_SUITES``, read
    off the suite: at one index prec/succ over the dimonoid or the semigroup,
    at two each role's ``DERIVED_OPS`` product or else the lifted prec/succ."""
    suite = _free_suite(suite_name)
    if suite.op_arity == 1:
        ops = carrier.dimonoid_ops() if suite.index_kind == "dimonoid" else carrier.family_ops()
    elif suite.roles[0] in DERIVED_OPS:
        ops = [free_derived_op(carrier, role) for role in suite.roles]
    else:
        ops = free_pair_ops(carrier)
    return OpCarrier(ops[0].index, dict(zip(suite.roles, ops)))


def free_check(carrier, suite_name, samples=200, max_vertices=6, seed=0):
    """Run a suite over seeded random tree tuples and all index tuples.  Where its
    ``SampledTreeDomain``, given the suite's index variables, holds the samples on a
    carrier over a power of the index, the suite runs on that carrier and the carrier
    given gets no products.  Each sample tuple after the first is then taken once, at the
    power's columns, which assumes the grafting recursion reads edge labels only through
    the index's products; the first is taken at every index tuple, so a carrier breaking
    that fails if it shows there.  Element d is the power's diagonal, under d's name, so
    every report byte is that of the scan on the carrier given."""
    suite = _free_suite(suite_name)
    n = max(equation.n_idx for equation in suite.equations)
    domain = freedend.SampledTreeDomain(carrier, samples, max_vertices, seed, n)
    opc = free_suite_carrier(domain.carrier, suite_name)
    report = check_axioms(opc, suite_name, domain, check_name=f"free-check:{suite_name}")
    info = {
        **report.info,
        "samples": samples,
        "max_vertices": max_vertices,
        "seed": seed,
        "decorations": list(carrier.decorations),
        "index_elements": list(carrier.dimonoid.elements),
    }
    return replace(report, info=info)
