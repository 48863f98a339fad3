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

# Taken before `kernel_masks` patches it, so the walk records nothing.
_kernel_mask = catalog._kernel_mask


@pytest.fixture
def kernel_masks(monkeypatch):
    """The (tuple, kernel mask) of each new subgroup the signature search
    meets, in order. The search cache is cleared, so searches run cold."""
    met = []

    def recording(words, neg):
        mask = _kernel_mask(words, neg)
        met.append(((words[1], words[2], words[4], words[8]), mask))
        return mask

    catalog._gamma_models.cache_clear()
    monkeypatch.setattr(catalog, "_kernel_mask", recording)
    return met


@functools.cache
def _full_walk(text, pool_name):
    spec = catalog.SignatureSpec.parse(text)
    pool = catalog.pool_group(pool_name)
    cay = pool.cayley()
    neg = pool.minus_index()
    commute, anticommute = pool.commutation_masks()
    if spec.commuting_fourth is None:
        triple_squares, fourth_sign, fourth_masks = spec.squares[:3], spec.squares[3], anticommute
    else:
        triple_squares, fourth_sign, fourth_masks = spec.squares, spec.commuting_fourth, commute
    candidates = pool.unit_square_masks()[fourth_sign] & pool.sign_representatives()
    seen, walk = set(), []
    for triple in pool.anticommuting_triples(triple_squares):
        fourths = candidates
        for s in triple:
            fourths &= fourth_masks[s]
        if spec.commuting_fourth is not None:
            fourths &= ~catalog._signed_mask(catalog._words(cay, triple), cay[neg])
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << triple[2]
        for s4 in mask_indices(fourths):
            words = catalog._words(cay, (*triple, s4))
            key = catalog._signed_mask(words, cay[neg])
            if key not in seen:
                seen.add(key)
                walk.append(((*triple, s4), _kernel_mask(words, neg)))
    return tuple(walk)


@pytest.fixture
def kernel_walk():
    """The search's walk with no stop: for a signature and a pool, the
    (tuple, kernel mask) of each new subgroup met over every triple and
    every fourth, in order. The search meets a prefix of it."""
    return _full_walk
