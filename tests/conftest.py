import pytest
from hypothesis import assume
from hypothesis import strategies as st

from zeckdual import DigitRule, SystemPair
from zeckdual.duality import is_subcollection, same_collection
from zeckdual.spectra import derived_constants

# the three pairs every cross-module suite exercises
PAIR_RULES = {
    "binary": ((1, 0), (1, 1)),
    "third": ((1, 1, 0), (2, 2, 2)),
    "nonbase": ((2, 0, 1), (10, 4)),
}

# the six pairs of the benchmark's envelope workload, from 4 to 67,260
# extremal candidates
ENVELOPE_RULES = {
    **PAIR_RULES,
    "110/11": ((1, 1, 0), (1, 1)),
    "22/33": ((2, 2), (3, 3)),
    "20/21": ((2, 0), (2, 1)),
}

# rules used for single-system tests
TEST_RULES = [(1, 0), (1, 1), (1, 1, 0), (2, 2, 2), (2, 0, 1), (10, 4), (2, 3, 0)]


@pytest.fixture(scope="session")
def pairs():
    return {name: SystemPair(sub, sup) for name, (sub, sup) in PAIR_RULES.items()}


@pytest.fixture(scope="session")
def constants(pairs):
    return {name: derived_constants(p) for name, p in pairs.items()}


def _rules(draw):
    period = draw(st.integers(2, 3))
    first = draw(st.integers(1, 3))
    return (first,) + tuple(draw(st.integers(0, 3)) for _ in range(period - 1))


@st.composite
def nested_pairs(draw):
    """A random pair of nested, distinct rules: entries 0..3, periods 2..3."""
    sub, sup = DigitRule(_rules(draw)), DigitRule(_rules(draw))
    assume(is_subcollection(sub, sup) and not same_collection(sub, sup))
    return SystemPair(sub, sup)
