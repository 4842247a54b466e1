from fractions import Fraction

import pytest

from relalg import (
    Cocycle,
    FiniteRelativeAlgebra,
    FreeDendCarrier,
    cocycle_twist,
    cyclic_monoid,
    dimonoid_from_semigroup,
    matching_dimonoid,
    trivial_monoid,
)


def sign_cocycle():
    """c(a,b) = (-1)^(ab) on Z/2; verified a cocycle by hand over all 8
    triples (both sides of the identity reduce to (-1)^(ab+ac+bc) terms)."""
    zmod2 = cyclic_monoid(2)
    return Cocycle(zmod2, [[1, 1], [1, Fraction(-1)]])


def one_dim_base():
    """The rationals as a 1-dim algebra over the trivial monoid, u.u = u."""
    return FiniteRelativeAlgebra(
        ["u"],
        trivial_monoid(),
        {"mul": {(0, 0): (((Fraction(1),),),)}},
        unit_vector=[Fraction(1)],
    )


@pytest.fixture
def zmod2():
    return cyclic_monoid(2)


@pytest.fixture
def cocycle_algebra():
    """The sign twist of the 1-dim algebra: mul_(a,b) = (-1)^(ab) u."""
    return cocycle_twist(one_dim_base(), sign_cocycle())


@pytest.fixture
def free_zmod2():
    return FreeDendCarrier(["x", "y"], dimonoid_from_semigroup(cyclic_monoid(2)))


@pytest.fixture
def free_matching2():
    return FreeDendCarrier(["x", "y"], matching_dimonoid(2))


@pytest.fixture
def cli(capsys):
    """``relalg.cli.main`` in process, as ``run(argv) -> (exit code, stdout
    bytes, stderr text)``, the runner ``outcomes.check`` takes."""
    from relalg.cli import main

    def run(argv):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refuses a command line by exiting 2
            status = exc.code
        out, err = capsys.readouterr()
        return status, out.encode(), err

    return run
