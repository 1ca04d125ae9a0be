import math
import multiprocessing
import re

import pytest
from hypothesis import settings

# the same examples on every run, so that a Tier-1 result can be reproduced;
# no example database, whose replays would depend on earlier runs
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test after which a child process (a ladder worker) still runs."""
    yield
    assert not multiprocessing.active_children(), "a child process outlived the test"


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[+-]?\d+)?")
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}


@pytest.fixture(scope="session")
def python_value():
    """Python's own evaluation of a real coefficient: its canonical text,
    with ``^`` as ``**``, each literal a float and the ``math`` functions,
    as a function of one time."""
    def compiled(fn):
        text = _NUMBER.sub(lambda m: f"float('{m[0]}')", fn.to_string().replace("^", "**"))
        code = compile(text, fn.to_string(), "eval")
        return lambda t: eval(code, {**_MATH, "t": float(t)})
    return compiled
