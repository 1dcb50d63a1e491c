import random

import pytest

from ewverify import fields, matrices, model, numeric

# Every process-wide memo of deterministic work.  A test that patches a
# function they call must not see, or leave behind, a result built without
# (or with) its patch.
MEMOS = (
    fields._canonical_factors,
    fields._fold_params,
    fields._renamed_replacement,
    matrices._axiom_forms,
    model._at_radius,
    model._build_L27,
    model._physical_matter_radial,
    model._su2_delta,
    numeric._plan,
)


@pytest.fixture(autouse=True)
def fresh_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture
def rng():
    return random.Random(1234)
