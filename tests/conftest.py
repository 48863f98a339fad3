"""Shared test configuration.

HYPOTHESIS_PROFILE=ci selects a derandomized profile without deadlines, so a
property-test failure in CI replays the same examples on any machine.
"""

import functools
import os

import pytest
from hypothesis import settings

from gammagroups import catalog
from gammagroups.groups import mask_indices

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

def kernel_mask(words, neg):
    """The normal forms a generator tuple sends to 1, as a 32-bit mask.

    ``words`` are the tuple's 16 words (`catalog._words`); bit j is set
    when word j is 1 and bit 16 + j when it is -1 (index ``neg``), that
    is when -1 times the word is 1. A kernel of k normal forms leaves a
    group of order 32 / k.
    """
    mask = 0
    for j, w in enumerate(words):
        if w == 0:
            mask |= 1 << j
        elif w == neg:
            mask |= 1 << 16 + j
    return mask


@functools.cache
def _full_walk(text, pool_name):
    spec = catalog.SignatureSpec.parse(text)
    pool = catalog.pool_group(pool_name)
    cay = pool.cayley()
    neg = pool.minus_index()
    commute, anticommute = pool.commutation_masks()
    triple_squares, fourth_sign = spec.squares[:3], spec.squares[3]
    fourth_masks = commute if spec.fourth_commutes else anticommute
    candidates = pool.unit_square_masks()[fourth_sign] & pool.sign_representatives()
    seen, walk = set(), []
    for triple in pool.anticommuting_triples(triple_squares):
        fourths = candidates
        for s in triple:
            fourths &= fourth_masks[s]
        if spec.fourth_commutes:
            fourths &= ~catalog._signed_mask(catalog._words(cay, triple), cay[neg])
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << triple[2]
        for s4 in mask_indices(fourths):
            words = catalog._words(cay, (*triple, s4))
            key = catalog._signed_mask(words, cay[neg])
            if key not in seen:
                seen.add(key)
                walk.append(((*triple, s4), kernel_mask(words, neg)))
    return tuple(walk)


@pytest.fixture
def kernel_walk():
    """The search's walk with no stop and no class key: for a signature and
    a pool, the (tuple, kernel mask) of each new subgroup met over every
    triple and every fourth, in order."""
    return _full_walk
