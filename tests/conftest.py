import pytest
from hypothesis import HealthCheck, settings

from rdfqa import default_dictionary, load_dataset
from rdfqa.fixtures import fixture_path

# One profile for every property test: the same bounded set of examples on
# every run, no example database and no per-example deadline.
settings.register_profile("rdfqa", derandomize=True, database=None, deadline=None,
                          max_examples=300, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("rdfqa")


@pytest.fixture(scope="session")
def family():
    return load_dataset(fixture_path("family.nt"))


@pytest.fixture(scope="session")
def zoo():
    return load_dataset(fixture_path("zoo_clean.nt"))


@pytest.fixture(scope="session")
def words():
    return default_dictionary()
