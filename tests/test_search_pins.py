"""Bit-level pins of every lockstep start and of every batch evaluator.

``test_search.py`` pins the winning start of three seeds per space. These
pins cover the rest: the final point and value of all 64 starts for seeds
0-9 of each space, the evaluator call and row counts of each run, and each
evaluator's output on a seeded 192-row batch (with the two degenerate cone
half-angles). Each digest is the first 16 hex digits of the SHA-256 of the
arrays' float64 bytes; any change to a floating-point operation on these
paths changes it.
"""

import hashlib
import math

import numpy as np
import pytest

from qcycle.scenario import canonical_scenario
from qcycle.search import SPACE_KINDS, default_space_and_evaluator, lhs_objective, nelder_mead

DEGENERATE_HALF_ANGLE = math.acos(1.0 / math.sqrt(3.0))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def box(space):
    lows, highs = np.array(space.bounds).T
    return lows, highs


def run_pin(kind: str, seed: int) -> tuple[str, int, int]:
    """(digest of all 64 final points and values, evaluator calls, rows) of one seed."""
    space, evaluator = default_space_and_evaluator(kind)
    calls = []

    def counted(batch):
        calls.append(len(batch))
        return evaluator(batch)

    lows, highs = box(space)
    x0 = np.random.default_rng(seed).uniform(lows, highs, size=(64, space.dimension))
    x, values = nelder_mead(lhs_objective(canonical_scenario(5), counted), x0, 0.1 * (highs - lows))
    return digest(x, values), len(calls), sum(calls)


def evaluator_pin(kind: str) -> str:
    space, evaluator = default_space_and_evaluator(kind)
    points = np.random.default_rng(192).uniform(*box(space), size=(192, space.dimension))
    if kind == "contextual-cone":
        points[:2, 0] = (DEGENERATE_HALF_ANGLE, math.pi - DEGENERATE_HALF_ANGLE)
    return digest(evaluator(points))


# (space, seed) -> (digest, evaluator calls, evaluator rows), generated by
# the optimizer before its per-iteration bookkeeping was rewritten.
RUN_PINS = {
    ("temporal-times", 0): ("b059e5e92a5fa4b8", 226, 33478),
    ("temporal-times", 1): ("9ed9594f2ef5014d", 235, 33452),
    ("temporal-times", 2): ("66c2dd43c4a4400b", 252, 34131),
    ("temporal-times", 3): ("cd5fc1bca6f490e3", 224, 34306),
    ("temporal-times", 4): ("eeadd70ca51e865a", 214, 33608),
    ("temporal-times", 5): ("3a3cc2d51d2b42d1", 272, 34448),
    ("temporal-times", 6): ("66d10785065d8b67", 242, 33709),
    ("temporal-times", 7): ("81d6248da2190876", 209, 33917),
    ("temporal-times", 8): ("e755ede11d8375f2", 228, 34050),
    ("temporal-times", 9): ("41d9f8005aa657a9", 215, 33582),
    ("bloch-angles", 0): ("6c86788c849fa583", 229, 37003),
    ("bloch-angles", 1): ("2e6e3d758c85ea49", 243, 36871),
    ("bloch-angles", 2): ("318ac53486c2fd19", 286, 38001),
    ("bloch-angles", 3): ("f476d438bd953b90", 237, 37945),
    ("bloch-angles", 4): ("328196d9501be065", 264, 38124),
    ("bloch-angles", 5): ("e2af0ec44fca7812", 262, 37671),
    ("bloch-angles", 6): ("d60efb4fd292bdef", 275, 37320),
    ("bloch-angles", 7): ("2d8ab9ec47c74133", 267, 37692),
    ("bloch-angles", 8): ("44e435838f426fcf", 231, 37267),
    ("bloch-angles", 9): ("75448b7060f68b43", 236, 37884),
    ("contextual-cone", 0): ("3a7fcc6eef5a42a7", 165, 12650),
    ("contextual-cone", 1): ("410399bc19fb2b2f", 151, 12348),
    ("contextual-cone", 2): ("6a9582a74dbef68d", 177, 12905),
    ("contextual-cone", 3): ("dedc525cf52068a9", 148, 12576),
    ("contextual-cone", 4): ("c8885d854329fae3", 170, 12548),
    ("contextual-cone", 5): ("4318edbcd6baa647", 187, 12993),
    ("contextual-cone", 6): ("27e875dcde4c1953", 171, 12158),
    ("contextual-cone", 7): ("6d510bcef145be3d", 143, 12521),
    ("contextual-cone", 8): ("7dda217d0bf73334", 165, 12996),
    ("contextual-cone", 9): ("53047fcae251524c", 129, 12320),
}

EVALUATOR_PINS = {
    "temporal-times": "e95c2bb46b8b0c59",
    "bloch-angles": "12ed1fc1e545b8c6",
    "contextual-cone": "afb543f0cf8b339b",
}


@pytest.mark.parametrize("kind, seed", sorted(RUN_PINS))
def test_every_start_is_pinned(kind, seed):
    assert run_pin(kind, seed) == RUN_PINS[kind, seed]


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_evaluator_output_is_pinned(kind):
    assert evaluator_pin(kind) == EVALUATOR_PINS[kind]


def test_every_space_and_seed_is_pinned():
    assert sorted(RUN_PINS) == sorted((kind, seed) for kind in SPACE_KINDS for seed in range(10))
