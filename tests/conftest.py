from __future__ import annotations

import os
import tempfile

import pytest

from hardstars import StarParameters, build_star, derive_metric_fields
from hardstars.background import solve_tov_picard

# hypothesis caches the literals it finds in the source under its storage
# directory (./.hypothesis by default) even when no example database is kept
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "hardstars-hypothesis")
)


@pytest.fixture(scope="session")
def star_r01():
    return build_star(StarParameters(R=0.1, grid_n=2001))


@pytest.fixture(scope="session")
def star_r005():
    return build_star(StarParameters(R=0.05, grid_n=2001))


@pytest.fixture(scope="session")
def star_r002():
    return build_star(StarParameters(R=0.02, grid_n=2001))


# the same radii from the fixed-point reference, for the checks that compare
# it with the collocation or were pinned on its stars
@pytest.fixture(scope="session")
def picard_r01():
    return derive_metric_fields(solve_tov_picard(StarParameters(R=0.1, grid_n=2001)))


@pytest.fixture(scope="session")
def picard_r005():
    return derive_metric_fields(solve_tov_picard(StarParameters(R=0.05, grid_n=2001)))


@pytest.fixture(scope="session")
def picard_r002():
    return derive_metric_fields(solve_tov_picard(StarParameters(R=0.02, grid_n=2001)))
