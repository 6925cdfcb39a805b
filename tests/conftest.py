import pytest
from hypothesis import settings

from divergeflow import (
    RiemannInput,
    del_castillo_mainline,
    del_castillo_ramp,
    greenshields,
    triangular,
)


@pytest.fixture(scope="session")
def mainline():
    return del_castillo_mainline()


@pytest.fixture(scope="session")
def ramp():
    return del_castillo_ramp()


@pytest.fixture(scope="session")
def trio(mainline, ramp):
    """Diagram trio of the diverge experiments: two-lane upstream and first
    downstream link, one-lane ramp as the second downstream link."""
    return (mainline, mainline, ramp)


@pytest.fixture(scope="session")
def all_diagrams(mainline, ramp):
    return (mainline, ramp, triangular(1.0, 1.0), greenshields(1.0, 1.0))


@pytest.fixture(scope="session")
def congested_diverge_input(trio):
    """Congested mainline feeding a free-flowing ramp: both upstream links at
    density 1, the ramp at 0.1 (the worked example reproduced throughout)."""
    return RiemannInput.from_densities(trio, (1.0, 1.0, 0.1))


# Property tests draw the same examples on every run and have no time limit.
settings.register_profile("divergeflow", derandomize=True, deadline=None, database=None)
settings.load_profile("divergeflow")
