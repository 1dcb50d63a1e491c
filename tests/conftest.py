import importlib
import pkgutil
import random

import pytest

import ewverify

# Every process-wide memo of deterministic work, found in the package's
# modules.  A test that patches a function they call must not see, or leave
# behind, a result built without (or with) its patch.
MEMOS = tuple({
    obj
    for info in pkgutil.iter_modules(ewverify.__path__)
    if info.name != "__main__"  # importing it runs the CLI
    for obj in vars(importlib.import_module(f"ewverify.{info.name}")).values()
    if hasattr(obj, "cache_clear")
})


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
