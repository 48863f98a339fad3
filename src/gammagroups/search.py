"""Signature search over monomial pools, and extensions by a fifth generator.

The search enumerates generator tuples inside a fixed pool of monomial
matrices, closes them, and identifies the resulting groups against the
catalog by their squaring keys, which fix these groups up to isomorphism
(`MatrixGroup.squaring_key`). `gammagroups.catalog` forwards every name
here and loads this module on the first such lookup.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence

from .brackets import verify_relations
from .catalog import EXTENSION_NAMES, POOL_NAMES, STABLE_NAMES, CatalogEntry, catalog_entry
from .catalog import _identify, _named_by_key
from .exact import (
    COUNTERS, IMAG_UNIT, MINUS_ONE, ONE, ExactMatrix, GaussianRational, block_diag, format_scalar,
)
from .groups import MatrixGroup
from .words import RelationSet, VerificationReport

# ---------------------------------------------------------------------------
# Pools and signature search


@functools.cache
def pool_group(name: str) -> MatrixGroup:
    """Monomial pool as a closed ambient group (includes the i-scalars)."""
    if name not in POOL_NAMES:
        raise KeyError(f"unknown pool {name!r}; have {POOL_NAMES}")
    base = "gamma_minus" if name == "dirac4" else "gamma64_minus"
    gens = list(catalog_entry(base).generators)
    scalar_i = ExactMatrix.identity(gens[0].dim).scale(IMAG_UNIT)
    return MatrixGroup.from_generators(gens + [scalar_i])


class SignatureSpec(NamedTuple):
    """Square pattern for a generator tuple.

    Text form: one +/- per generator; all generators pairwise anticommute.
    With a pipe, the part before it is the anticommuting triple and the
    single sign after it is a fourth generator that commutes instead.
    """

    squares: tuple[int, ...]
    commuting_fourth: int | None = None

    @classmethod
    def parse(cls, text: str) -> "SignatureSpec":
        text = text.strip()
        if "|" in text:
            head, _, tail = text.partition("|")
            squares = tuple(cls._sign(ch) for ch in head.strip())
            fourth = tuple(cls._sign(ch) for ch in tail.strip())
            if len(squares) != 3 or len(fourth) != 1:
                raise ValueError(f"signature {text!r} needs three signs, a pipe, one sign")
            return cls(squares, fourth[0])
        squares = tuple(cls._sign(ch) for ch in text)
        if len(squares) != 4:
            raise ValueError(f"signature {text!r} needs four signs")
        return cls(squares, None)

    @staticmethod
    def _sign(ch: str) -> int:
        if ch == "+":
            return 1
        if ch == "-":
            return -1
        raise ValueError(f"signature signs must be + or -, got {ch!r}")

    def __str__(self) -> str:
        head = "".join("+" if s > 0 else "-" for s in self.squares)
        if self.commuting_fourth is None:
            return head
        return f"{head}|{'+' if self.commuting_fourth > 0 else '-'}"


# Canonical sweep order: the five all-anticommuting square patterns, then
# the commuting-fourth patterns.
SWEEP_SIGNATURES = (
    "++++",
    "+++-",
    "++--",
    "+---",
    "----",
    "+++|+",
    "+++|-",
    "++-|+",
    "++-|-",
    "+--|+",
    "+--|-",
    "---|+",
    "---|-",
)


class ModelHit(NamedTuple):
    """One isomorphism class found for a signature in a pool."""

    signature: str
    pool: str
    generator_indices: tuple[int, ...]
    order: int
    identified: str | None


def _words(cay: Sequence[Sequence[int]], gens: Sequence[int]) -> list[int]:
    """The 2^k words s1^b1 .. sk^bk of a generator tuple, as table indices.

    Word j has b_i the bit i - 1 of j, so word 1 << (i - 1) is s_i. The
    words are evaluated prefix by prefix, one lookup each (2^k - 1 in all).
    """
    words = [0]
    for s in gens:
        words += [cay[w][s] for w in words]
    return words


def _signed_mask(words: Iterable[int], minus_row: Sequence[int]) -> int:
    """Member mask of the words and their negatives, by the row of -1."""
    mask = 0
    for w in words:
        mask |= 1 << w | 1 << minus_row[w]
    return mask


def _admitted_orders(spec: SignatureSpec, dimension: int) -> frozenset[int]:
    """The orders a group generated by the spec's tuples can have in a pool
    of this dimension, read off the presentation P (see `find_gamma_models`).

    P's 32 normal forms z^a s1^b1..s4^b4 are coded a << 4 | b, with b_i
    the bit i - 1 of b. A tuple's group is P/K for a kernel K that is
    normal in P and avoids z = -1. Every commutator of P lies in <z>, so a
    g in K outside the center would put some [g, x] = z in K: K is
    central. With a commuting fourth the search keeps s4 outside
    H = <s1, s2, s3>, so K holds no word with s4 in it; that leaves K
    inside <z, w> for w = s1 s2 s3 (with four anticommuting generators
    Z(P) = <z>), so K is {1} or <c> for a central involution c other than
    z, and Q = P/K has order 32/|K|.
    The pool sends z to -1, so Q acts faithfully on the pool's space as a
    sum of irreducibles chi with chi(z) = -chi(1). For g outside Z(Q) some
    [g, x] is z, so chi(g) = -chi(g) = 0 and chi has degree
    sqrt|Q : Z(Q)|. Their central characters must have kernels that meet
    trivially, so at least rank Omega_1(Z(Q)) of them are needed (Isaacs,
    Character Theory of Finite Groups, ch. 2). An order whose every Q needs
    more than the pool's dimension cannot occur.
    """
    squares = spec.squares if spec.commuting_fourth is None else (
        *spec.squares, spec.commuting_fourth)
    minus = sum(1 << i for i, s in enumerate(squares) if s < 0)
    # The s_i, i > j, that s_j anticommutes with.
    passing = [sum(1 << i for i in range(j + 1, 4) if spec.commuting_fourth is None or i < 3)
               for j in range(4)]

    def mul(x: int, y: int) -> int:
        # Each s_j of y moves left past the s_i, i > j, of x it anticommutes
        # with, then meets its own s_j in x, if any: one z per swap and per
        # generator squaring to -1.
        flips = (x & y & minus).bit_count() + sum(
            (x & passing[j]).bit_count() for j in range(4) if y >> j & 1)
        return x ^ y ^ (flips & 1) << 4

    central = [g for g in range(32) if all(mul(g, x) == mul(x, g) for x in (1, 2, 4, 8))]
    # Commutators and squares of P lie in <z>, which K avoids, so one lies
    # in K only when it is 1: Z(Q) is Z(P)/K and Omega_1(Z(Q)) is
    # {g in Z(P) : g^2 = 1}/K, whatever the kernel.
    involutions = sum(mul(g, g) == 0 for g in central)
    degree = math.isqrt(32 // len(central))
    kernels = [1] + [2 for c in central if c not in (0, 16) and not c & 8 and mul(c, c) == 0]
    return frozenset(32 // k for k in kernels
                     if ((involutions // k).bit_length() - 1) * degree <= dimension)


def find_gamma_models(
    spec: SignatureSpec | str, pool_name: str = "dirac4"
) -> list[ModelHit]:
    """All isomorphism classes of groups generated by tuples matching a spec.

    Candidate generators are found by intersecting the pool's commutation
    and unit-square bitmasks (bit i stands for pool element i; built once
    per pool from its integer Cayley table), never by matrix products.
    Only one of each pair {s, -s} is a candidate, the lower pool index:
    every tuple holds an anticommuting pair, so -1 lies in the group it
    generates and -s gives the same group as s. The hits and their first
    tuples stay those of the search over both signs.
    Tuples are enumerated deterministically, triple by triple
    (`MatrixGroup.anticommuting_triples`), and their groups are read off
    the pool's Cayley table as words (`_words`): a pairwise anticommuting
    triple whose squares are +-1 generates exactly its 8 words and their
    negatives (`_signed_mask`), its group H. Each s4 commutes or
    anticommutes with every s_i and squares to +-1, so it normalizes H
    and <H, s4> = H u H*s4, whose new members are +- the triple's words
    times s4.
    Every tuple obeys the relations of one group P: a central z with
    z^2 = 1, each s_i^2 equal to 1 or z by its sign, and commutator z for
    anticommuting pairs, 1 for commuting ones. With z = -1 the tuple maps
    P onto its group (von Dyck), so the group is P/K for the kernel K of
    the normal forms z^a s1^b1..s4^b4 sent to 1. K is {1}, or <w> or
    <z w> for w = s1 s2 s3 when w^2 = 1 (`_admitted_orders`); s3 -> -s3
    swaps the last two, so two tuples generate isomorphic groups exactly
    when their groups have equal orders, 32/|K|. That order is twice |H|
    for every s4, so the search reads one fourth per triple, its lowest,
    and a tuple starts a class when its order is new. The orders that a
    degree bound admits for the pool's dimension (`_admitted_orders`) are
    the only ones that can occur; once the search has met them all, no
    later tuple can start a class, and the search ends there. Each class
    reports the first generator tuple that produced it. The pool is in F
    (`MatrixGroup.squaring_key`), so an order-32 class is named by the
    squaring key of its member mask, read off the pool's tables with no
    group built. An empty list means the pool has no model for the spec.
    """
    if isinstance(spec, str):
        spec = SignatureSpec.parse(spec)
    return list(_gamma_models(str(spec), pool_name))


@functools.cache
def _gamma_models(spec_text: str, pool_name: str) -> tuple[ModelHit, ...]:
    """The search behind `find_gamma_models`, kept per (signature, pool)."""
    spec = SignatureSpec.parse(spec_text)
    pool = pool_group(pool_name)
    cay = pool.cayley()
    commute, anticommute = pool.commutation_masks()
    if spec.commuting_fourth is None:
        triple_squares = spec.squares[:3]
        fourth_sign = spec.squares[3]
        fourth_masks = anticommute
    else:
        triple_squares = spec.squares
        fourth_sign = spec.commuting_fourth
        fourth_masks = commute
    candidates = pool.unit_square_masks()[fourth_sign] & pool.sign_representatives()
    minus_row = cay[pool.minus_index()]
    admitted = _admitted_orders(spec, pool.dim)

    hits: dict[int, ModelHit] = {}  # one class per order
    for triple in pool.anticommuting_triples(triple_squares):
        if hits.keys() >= admitted:
            break
        s1, s2, s3 = triple
        head = _words(cay, triple)
        base = _signed_mask(head, minus_row)  # the triple's group H
        fourths = fourth_masks[s1] & fourth_masks[s2] & fourth_masks[s3] & candidates
        if spec.commuting_fourth is not None:
            # A commuting fourth already inside the triple's span adds
            # nothing; skip the degenerate tuple.
            fourths &= ~base
        elif fourth_sign == triple_squares[2]:
            fourths &= -2 << s3
        if not fourths:
            continue
        COUNTERS["search.tuples"] += 1
        s4 = (fourths & -fourths).bit_length() - 1
        key = base | _signed_mask([cay[w][s4] for w in head], minus_row)  # H u H*s4
        order = key.bit_count()
        if order not in hits:
            hits[order] = ModelHit(
                signature=str(spec),
                pool=pool_name,
                generator_indices=(s1, s2, s3, s4),
                order=order,
                identified=_named_by_key(pool.squaring_key(key), STABLE_NAMES)
                if order == 32 else None,
            )
    return tuple(hits.values())


def sweep_stable_models(pool_name: str = "penta8") -> dict[str, list[ModelHit]]:
    """Run every canonical signature over a pool.

    Returns the order-32 hits per signature; callers check that exactly the
    five stable groups show up across all signatures.
    """
    out: dict[str, list[ModelHit]] = {}
    for text in SWEEP_SIGNATURES:
        hits = find_gamma_models(text, pool_name)
        out[text] = [hit for hit in hits if hit.order == 32]
    return out


# ---------------------------------------------------------------------------
# Extensions by a fifth anticommuting generator


class ExtensionResult(NamedTuple):
    base: str
    square: int
    found: bool
    reason: str = ""
    phase: str = ""
    generators: Sequence[ExactMatrix] = ()
    order: int = 0
    identified: str | None = None
    report: VerificationReport | None = None


def enumerate_extensions(base_name: str, square: int) -> ExtensionResult:
    """Extend a four-generator model by a fifth anticommuting generator.

    The fifth generator is sought among phase multiples of the product of
    the four base generators; the doubled model puts the base in both
    diagonal blocks and the fifth with opposite signs, which keeps the
    sixth-generator product central but not scalar. The result carries a
    relation check of the whole construction.
    """
    if square not in (1, -1):
        raise ValueError("the fifth generator square must be 1 or -1")
    entry = catalog_entry(base_name)
    gens = entry.generators
    if len(gens) != 4:
        return ExtensionResult(
            base=base_name,
            square=square,
            found=False,
            reason=f"{base_name} has {len(gens)} generators, need exactly 4",
        )
    product = gens[0] * gens[1] * gens[2] * gens[3]
    # The reported phase is the first that works, tried in this order.
    for phase in (ONE, MINUS_ONE, IMAG_UNIT, -IMAG_UNIT):
        witness = product.scale(phase)
        if (witness * witness).scalar_value() == GaussianRational(square, 0) and all(
            witness * g == (g * witness).scale(MINUS_ONE) for g in gens
        ):
            break
    else:
        return ExtensionResult(
            base=base_name,
            square=square,
            found=False,
            reason="no phase of the generator product anticommutes with the base "
            f"and squares to {square}",
        )
    doubled = [block_diag(g, g) for g in gens]
    fifth = block_diag(witness, witness.scale(MINUS_ONE))
    group = MatrixGroup.from_generators(doubled + [fifth])
    labels = ["G1", "G2", "G3", "G4", "G5", "G6"]
    assignment = dict(zip(labels, doubled + [fifth]))
    assignment["G6"] = assignment["G1"] * assignment["G2"] * assignment["G3"] * assignment[
        "G4"
    ] * assignment["G5"]
    relations = _extension_relations(entry, gens, square, assignment["G6"])
    report = verify_relations(relations, assignment)
    return ExtensionResult(
        base=base_name,
        square=square,
        found=True,
        phase=format_scalar(phase),
        generators=doubled + [fifth],
        order=group.order,
        identified=_identify(group, EXTENSION_NAMES),
        report=report,
    )


def _extension_relations(
    entry: CatalogEntry, gens: list[ExactMatrix], square: int, sixth: ExactMatrix
) -> RelationSet:
    labels = ["G1", "G2", "G3", "G4", "G5", "G6"]
    rels: list[tuple[str, str, str]] = []
    for k, g in enumerate(gens, start=1):
        sq = (g * g).scalar_value()
        rels.append((f"square-{k}", f"G{k}^2", "1" if sq.re > 0 else "-1"))
    rels.append(("square-5", "G5^2", "1" if square > 0 else "-1"))
    for i in range(1, 6):
        for j in range(i + 1, 6):
            rels.append((f"anticommute-{i}{j}", f"G{i} G{j}", f"-1*G{j} G{i}"))
    rels.append(("sixth-is-total-product", "G6", "G1 G2 G3 G4 G5"))
    for k in range(1, 6):
        rels.append((f"sixth-commutes-{k}", f"G6 G{k}", f"G{k} G6"))
    sixth_sq = (sixth * sixth).scalar_value()
    rels.append(
        (
            "sixth-squares-to-one" if sixth_sq.re > 0 else "sixth-squares-to-minus-one",
            "G6^2",
            "1" if sixth_sq.re > 0 else "-1",
        )
    )
    return RelationSet(f"extension-{entry.name}", labels, rels)


def sweep_extensions() -> list[ExtensionResult]:
    """Both square choices over every stable base, in catalog order."""
    out = []
    for base in STABLE_NAMES:
        for square in (1, -1):
            out.append(enumerate_extensions(base, square))
    return out
