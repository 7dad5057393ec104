import functools

import pytest

from dfl.operators import descriptor


@functools.lru_cache(maxsize=None, typed=True)
def op(family, name, p=None, s=None, b0=None, base=None):
    """``descriptor(family, name, ...)``, built once per argument tuple."""
    return descriptor(family, name, p, s, b0, base)


SCENE_KB = "forall x, y: chair(x) & partOf(y, x) -> cushion(y) | armRest(y)\n"

SCENE_GROUNDING = """\
chair(o1)=0.9
chair(o2)=0.4
cushion(o1)=0.05
cushion(o2)=0.5
armRest(o1)=0.05
armRest(o2)=0.1
partOf(o1,o1)=0.001
partOf(o1,o2)=0.01
partOf(o2,o1)=0.95
partOf(o2,o2)=0.001
"""

# d(valuation)/datom for the scene under the product configuration
# (T_P, S_P, I_RC, A_TP); the loss gradient is the negation of each entry.
SCENE_VALUATION_GRADIENTS = {
    ("chair", (0,)): -0.4261,
    ("chair", (1,)): -0.0058,
    ("cushion", (0,)): 0.0029,
    ("cushion", (1,)): 0.7662,
    ("armRest", (0,)): 0.0029,
    ("armRest", (1,)): 0.4257,
    ("partOf", (0, 0)): -0.4978,
    ("partOf", (1, 1)): -0.1103,
    ("partOf", (0, 1)): -0.2219,
    ("partOf", (1, 0)): -0.4031,
}

SCENE_VALUATION = 0.612


@pytest.fixture
def scene_kb_text():
    return SCENE_KB


@pytest.fixture
def scene_grounding_text():
    return SCENE_GROUNDING


@pytest.fixture
def scene():
    from dfl.logic import parse_kb
    from dfl.valuation import build_grounding, parse_grounding

    kb = parse_kb(SCENE_KB)
    domain, interp, signature = parse_grounding(SCENE_GROUNDING)
    grounding = build_grounding(interp, domain, signature,
                                batch=list(range(len(domain))))
    return kb, grounding
