"""Axiom checks and derived operation bundles on the free tree carrier."""

from dataclasses import replace

from .axioms import check_axioms
from .constructions import (
    assoc_from_dend,
    family_to_pair,
    lie_from_prelie,
    prelie_from_dend,
)
from .errors import ContractError
from .freedend import SampledTreeDomain
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
    """Pair-indexed prec/succ on the free carrier, via the family lifting;
    needs a semigroup-form dimonoid."""
    prec_fam, succ_fam = carrier.family_ops()
    return family_to_pair("prec", prec_fam), family_to_pair("succ", succ_fam)


# role -> builder of the derived operation from (prec, succ); the names are
# looked up at call time, so rebinding them (as perfbench/tracing.py does) holds
DERIVED_OPS = {
    "mul": lambda prec, succ: assoc_from_dend(prec, succ),
    "circ": lambda prec, succ: prelie_from_dend(prec, succ),
    "bracket": lambda prec, succ: lie_from_prelie(prelie_from_dend(prec, succ)),
}
DERIVED_SUITES = {"RelAssoc": "mul", "RelPreLie": "circ", "RelLie": "bracket"}


def free_suite_carrier(carrier, suite_name):
    """Operation bundle on the free carrier appropriate for the suite, and
    the index structure the suite runs over."""
    if suite_name == "DimonoidDendriform":
        prec, succ = carrier.dimonoid_ops()
        return OpCarrier(carrier.dimonoid, {"prec": prec, "succ": succ})
    if suite_name == "FamDendriform":
        prec, succ = carrier.family_ops()
        return OpCarrier(prec.index, {"prec": prec, "succ": succ})
    prec, succ = free_pair_ops(carrier)
    if suite_name == "RelDendriform":
        return OpCarrier(prec.index, {"prec": prec, "succ": succ})
    role = DERIVED_SUITES.get(suite_name)
    if role is not None:
        return OpCarrier(prec.index, {role: DERIVED_OPS[role](prec, succ)})
    raise ContractError(
        f"suite {suite_name!r} is not available on free carriers "
        f"(choose from {', '.join(FREE_SUITES)})"
    )


def free_check(carrier, suite_name, samples=200, max_vertices=6, seed=0):
    """Run a suite over seeded random tree tuples and all index tuples."""
    opc = free_suite_carrier(carrier, suite_name)
    domain = SampledTreeDomain(carrier, opc.index, samples, max_vertices, seed)
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
