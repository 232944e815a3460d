"""The objective as it was defined over Python objects, before it took integer columns.

Kept as the reference: ``submodular.objective`` over the same pairs, with
the keys numbered and the weights in an array, must give the same float.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Mapping

import numpy as np

from subselect.submodular import ConcaveSpec


def ref_objective(pairs: Iterable[tuple], weight_of: Callable, concave: ConcaveSpec) -> float:
    """f(X) from scratch, over X's (feature, relevance) pairs in selection order.

    Masses add up in pair order; the weighted curve values are then summed
    left to right, features in the order the pairs first touch them.
    """
    mass: dict = {}
    for key, val in pairs:
        mass[key] = mass.get(key, 0.0) + val
    phi = concave.apply(np.fromiter(mass.values(), dtype=np.float64, count=len(mass))).tolist()
    total = 0.0
    for key, value in zip(mass, phi):
        total += weight_of(key) * value
    return total


def ref_evaluate(vectors: Iterable[Mapping], weight_of: Callable, concave: ConcaveSpec) -> float:
    """``ref_objective`` over plain relevance dicts, masses summed in selection order."""
    return ref_objective(chain.from_iterable(vec.items() for vec in vectors), weight_of, concave)
