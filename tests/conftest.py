import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from twistkit.cli import _json_dumps
from twistkit.pbw import Element
from twistkit.tensor import TensorElement


def committed_candidates() -> list:
    """The committed candidates tests/data/candidate-order{3,4,5,6}.json."""
    from twistkit.candidate import TwistCandidate

    data = Path(__file__).resolve().parent / "data"
    return [TwistCandidate.from_json(json.loads(
        (data / f"candidate-order{n}.json").read_text())) for n in (3, 4, 5, 6)]


def json_text(obj) -> str:
    """What the CLI writes for the JSON document obj."""
    out = io.StringIO()
    _json_dumps(obj, out)
    return out.getvalue()


def random_fraction(rng, lo=-9, hi=9, max_den=6, dens=None) -> Fraction:
    """num/den with den in 1..max_den, or drawn from dens when given."""
    num = rng.randint(lo, hi)
    return Fraction(num, rng.choice(dens) if dens else rng.randint(1, max_den))


def random_monomial(rng, max_deg=3):
    while True:
        e = rng.randint(0, max_deg)
        f = rng.randint(0, max_deg - e) if max_deg - e >= 0 else 0
        d = rng.randint(0, max(0, max_deg - e - f))
        if e + f + d <= max_deg:
            return (e, f, d)


def random_element(rng, max_deg=3, nterms=3, dens=None) -> Element:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        terms[random_monomial(rng, max_deg)] = random_fraction(rng, dens=dens)
    return Element(terms)


def random_tensor(rng, max_deg=2, nterms=3, dens=None, legs=2) -> TensorElement:
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        key = tuple(random_monomial(rng, max_deg) for _ in range(legs))
        terms[key] = random_fraction(rng, dens=dens)
    return TensorElement(terms)


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture(scope="session")
def order3_build():
    from twistkit.twist import build_candidate
    return build_candidate(3)
