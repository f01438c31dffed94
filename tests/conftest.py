import pytest

from tcplan import catalog


@pytest.fixture(autouse=True)
def empty_cup_length_memo():
    """Every test starts with an empty cache of searched leaf cup-lengths, so
    none passes or fails by what an earlier test searched."""
    catalog._cup_length.cache_clear()
