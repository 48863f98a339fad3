"""Shared test configuration.

HYPOTHESIS_PROFILE=ci selects a derandomized profile without deadlines, so a
property-test failure in CI replays the same examples on any machine.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
