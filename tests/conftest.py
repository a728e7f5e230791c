import pytest

from borelab.grading import context_for
from borelab.poset import enumerate_poset


@pytest.fixture(scope="session")
def e8():
    ctx = context_for("E8~1", [1])
    return ctx, enumerate_poset(ctx)


@pytest.fixture(scope="session")
def d5():
    ctx = context_for("D5~2", [1])
    return ctx, enumerate_poset(ctx)
