"""Shared test configuration.

HYPOTHESIS_PROFILE=ci selects a derandomized profile without deadlines, so a
property-test failure in CI replays the same examples on any machine.
"""

import os

import pytest
from hypothesis import settings

from gammagroups import catalog

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def kernel_masks(monkeypatch):
    """The (tuple, kernel mask) of each new subgroup the signature search
    meets, in order. The search caches are cleared, so searches run cold."""
    kernel_mask, met = catalog._kernel_mask, []

    def recording(words, neg):
        mask = kernel_mask(words, neg)
        met.append(((words[1], words[2], words[4], words[8]), mask))
        return mask

    catalog._gamma_models.cache_clear()
    catalog._triple_level.cache_clear()
    monkeypatch.setattr(catalog, "_kernel_mask", recording)
    return met
