"""Registry of verifiable numeric claims about the catalog groups, and its runner.

Each claim pairs a frozen expected value with a callable that recomputes
the value from scratch. A claim passes only on exact equality, so every
expected value is a plain JSON-compatible object in a canonical form
(sorted lists, formatted scalars, census strings). The claims are built
in `gammagroups.paper`, which `registry()` imports on its first call.
"""

from __future__ import annotations

import time
from fnmatch import fnmatch
from typing import Callable, NamedTuple


class UnknownClaimFilter(Exception):
    """Raised when a claim filter matches nothing in the registry."""


class Claim(NamedTuple):
    claim_id: str
    description: str
    expected: object
    compute: Callable[[], object]


class ClaimResult(NamedTuple):
    claim_id: str
    description: str
    expected: object
    computed: object
    status: str

    def to_dict(self) -> dict:
        return self._asdict()


_REGISTRY: list[Claim] | None = None


def registry() -> list[Claim]:
    global _REGISTRY
    if _REGISTRY is None:
        from .paper import build_registry

        _REGISTRY = build_registry()
    return list(_REGISTRY)


def _matches(claim_id: str, pattern: str) -> bool:
    # "delta.*" is read as a namespace prefix even though the ids continue
    # with digits (delta1, delta2, ...), so the dotless variant also matches
    # when a digit follows; "catalog.q8.*" must not pick up catalog.q8_c2.
    return fnmatch(claim_id, pattern) or fnmatch(claim_id, pattern.replace(".*", "[0-9]*"))


def run_claims(
    pattern: str | None = None, *, timings: dict[str, int] | None = None
) -> list[ClaimResult]:
    """Run the registry (or a glob-filtered slice) and collect results.

    Claims run one after another in registry order, so results come back
    sorted by claim id. When `timings` is given, it receives each claim's
    wall time in milliseconds by claim id; work a shared cache keeps is
    charged to the first claim that fills it. Raises UnknownClaimFilter
    when the pattern selects nothing.
    """
    selected = registry()
    if pattern is not None:
        selected = [c for c in selected if _matches(c.claim_id, pattern)]
        if not selected:
            raise UnknownClaimFilter(f"claim filter {pattern!r} matches no registered claim")
    results = []
    for claim in selected:
        start = time.perf_counter()
        try:
            computed = claim.compute()
        except Exception as err:  # a crashed claim is a failed claim
            computed = f"error: {err}"
        if timings is not None:
            timings[claim.claim_id] = int((time.perf_counter() - start) * 1000)
        status = "PASS" if computed == claim.expected else "FAIL"
        results.append(ClaimResult(
            claim.claim_id, claim.description, claim.expected, computed, status,
        ))
    return results
