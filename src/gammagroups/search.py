"""Signature search over monomial pools, and extensions by a fifth generator.

The search enumerates generator tuples inside a fixed pool of monomial
matrices, closes them, and identifies the resulting groups against the
catalog by their squaring keys, which fix these groups up to isomorphism
(`MatrixGroup.squaring_key`). `gammagroups.catalog` forwards every name
here and loads this module on the first such lookup.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .brackets import verify_relations
from .catalog import EXTENSION_NAMES, POOL_NAMES, STABLE_NAMES, catalog_entry, catalog_group
from .catalog import _named_by_key, generated_group
from .exact import COUNTERS, IMAG_UNIT, MINUS_ONE, ONE, ExactMatrix, block_diag, format_scalar
from .groups import MatrixGroup
from .words import RelationSet, VerificationReport

# ---------------------------------------------------------------------------
# Pools and signature search


def pool_group(name: str) -> MatrixGroup:
    """Monomial pool as a closed ambient group (includes the i-scalars)."""
    if name not in POOL_NAMES:
        raise KeyError(f"unknown pool {name!r}; have {POOL_NAMES}")
    gens = catalog_entry("gamma_minus" if name == "dirac4" else "gamma64_minus").generators
    return generated_group((*gens, ExactMatrix.identity(gens[0].dim).scale(IMAG_UNIT)))


class SignatureSpec(NamedTuple):
    """Square pattern for a generator tuple: the squares, and whether the
    fourth of four generators commutes with the other three.

    Text form: one +/- per generator; all generators pairwise anticommute.
    With a pipe, the part before it is the anticommuting triple and the
    single sign after it is a fourth generator that commutes instead.
    """

    squares: tuple[int, ...]
    fourth_commutes: bool = False

    @classmethod
    def parse(cls, text: str) -> "SignatureSpec":
        text = text.strip()
        head, pipe, tail = (part.strip() for part in text.partition("|"))
        squares = tuple(cls._sign(ch) for ch in head + tail)
        if pipe and (len(head), len(tail)) != (3, 1):
            raise ValueError(f"signature {text!r} needs three signs, a pipe, one sign")
        return cls(squares, bool(pipe))

    @staticmethod
    def _sign(ch: str) -> int:
        if ch == "+":
            return 1
        if ch == "-":
            return -1
        raise ValueError(f"signature signs must be + or -, got {ch!r}")

    def __str__(self) -> str:
        signs = "".join("+" if s > 0 else "-" for s in self.squares)
        return f"{signs[:3]}|{signs[3]}" if self.fourth_commutes else signs

    def product_square(self) -> int:
        """The square of w = g1..gm, the product of the m pairwise
        anticommuting generators (the triple before a commuting fourth, or
        all of them): the product of their squares times (-1)^(m(m-1)/2),
        the sign of reversing m factors."""
        squares = self.squares[:3] if self.fourth_commutes else self.squares
        m = len(squares)
        return math.prod(squares) * (-1) ** (m * (m - 1) // 2)

    def relations(self) -> RelationSet:
        """The pattern as word equations over g1..gn: each square, then
        each pair, which anticommutes unless it holds a commuting fourth.
        For odd n with no commuting fourth, the product w = g1..gn is
        central, with w^2 the `product_square`."""
        n = len(self.squares)
        labels = tuple(f"g{k}" for k in range(1, n + 1))
        rels = [(f"square-{k}", f"g{k}^2", str(s)) for k, s in enumerate(self.squares, 1)]
        rels += [
            (f"commute-{i}{j}", f"g{i} g{j}", f"g{j} g{i}") if self.fourth_commutes and j == 4
            else (f"anticommute-{i}{j}", f"g{i} g{j}", f"-1*g{j} g{i}")
            for i, j in itertools.combinations(range(1, n + 1), 2)
        ]
        if n % 2 and not self.fourth_commutes:
            product = " ".join(labels)
            rels += [(f"product-commutes-{k}", f"{product} g{k}", f"g{k} {product}")
                     for k in range(1, n + 1)]
            square = self.product_square()
            rels.append((f"product-squares-to-{'one' if square > 0 else 'minus-one'}",
                         f"{product} {product}", str(square)))
        return RelationSet(f"signature-{self}", labels, rels)


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
    of this dimension, in closed form.

    Every tuple obeys the relations of one group P of order 32: a central
    z with z^2 = 1, each s_i^2 equal to 1 or z by its sign, and commutator
    z for anticommuting pairs, 1 for commuting ones. With z = -1 the tuple
    maps P onto its group (von Dyck), so the group is Q = P/K for a kernel
    K that is normal in P and avoids z. Every commutator of P lies in <z>,
    so K is central; the search keeps a commuting s4 outside
    H = <s1, s2, s3>, so K holds no word in s4.
    The pool sends z to -1, so Q acts faithfully on the pool's space as a
    sum of irreducibles chi with chi(z) = -chi(1). For g outside Z(Q) some
    [g, x] is z, so chi(g) = -chi(g) = 0 and chi has degree
    sqrt|Q : Z(Q)|. Their central characters must have kernels that meet
    trivially, so at least rank Omega_1(Z(Q)) of them are needed (Isaacs,
    Character Theory of Finite Groups, ch. 2). An order whose Q needs more
    than the pool's dimension cannot occur.
    With four anticommuting generators Z(P) = <z>, so K = {1} and Q = P
    needs one constituent of degree 4. With a commuting fourth
    Z(P) = <z, w, s4> for w = s1 s2 s3, so K is {1}, or <w> or <z w> when
    w^2 = 1 (`SignatureSpec.product_square`). Squares and commutators of P
    lie in <z>, which K avoids, so Z(Q) = Z(P)/K and Omega_1(Z(Q)) =
    Omega_1(Z(P))/K: every Q needs degree 2, P needs the rank 3 when
    w^2 = s4^2 = 1 and 2 otherwise, and a Q of order 16 one less.
    """
    if not spec.fourth_commutes:
        degree, needed = 4, {32: 1}
    else:
        w_square = spec.product_square()
        rank = 3 if w_square == spec.squares[3] == 1 else 2
        degree, needed = 2, ({32: rank, 16: rank - 1} if w_square == 1 else {32: rank})
    return frozenset(order for order, count in needed.items() if count * degree <= dimension)


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
    Every tuple's group is a quotient P/K of the group P that the spec's
    relations present (`_admitted_orders`): K is {1}, or <w> or <z w> for
    w = s1 s2 s3 when w^2 = 1; s3 -> -s3 swaps the last two, so two tuples
    generate isomorphic groups exactly when their groups have equal
    orders, 32/|K|. That order is twice |H| for every s4, so the search
    reads one fourth per triple, its lowest, and a tuple starts a class
    when its order is new. The orders that a degree bound admits for the
    pool's dimension (`_admitted_orders`) are the only ones that can
    occur; once the search has met them all, no later tuple can start a
    class, and the search ends there. Each class reports the first
    generator tuple that produced it. An order-32 class's member mask
    holds -1, so the class is named by the mask's squaring key
    (`MatrixGroup.squaring_key`), read off the pool's tables with no group
    built. An empty list means the pool has no model for the spec.
    """
    if isinstance(spec, str):
        spec = SignatureSpec.parse(spec)
    if len(spec.squares) != 4:
        raise ValueError(f"signature '{spec}' needs four signs")
    return list(_gamma_models(spec, pool_name))


@functools.cache
def _gamma_models(spec: SignatureSpec, pool_name: str) -> tuple[ModelHit, ...]:
    """The search behind `find_gamma_models`, kept per (signature, pool)."""
    pool = pool_group(pool_name)
    cay = pool.cayley()
    commute, anticommute = pool.commutation_masks()
    triple_squares, fourth_sign = spec.squares[:3], spec.squares[3]
    fourth_masks = commute if spec.fourth_commutes else anticommute
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
        if spec.fourth_commutes:
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

    The fifth generator is sought among phase multiples cP of the product
    P of the four base generators, read off the base group's table. cP
    anticommutes with the base when P does and squares to c^2 P^2, c^2 =
    +-1, so one works exactly when P anticommutes with every generator and
    P^2 is +-1; the first of 1, -1, i, -i that does is 1 when P^2 is the
    requested square and i otherwise. The doubled model puts the base in
    both diagonal blocks and the fifth with opposite signs, which keeps
    the sixth-generator product central but not scalar. The result carries
    a check of its five-sign signature's relations.
    """
    if square not in (1, -1):
        raise ValueError("the fifth generator square must be 1 or -1")
    gens = catalog_entry(base_name).generators
    if len(gens) != 4:
        return ExtensionResult(base_name, square, False,
                               reason=f"{base_name} has {len(gens)} generators, need exactly 4")
    base = catalog_group(base_name)
    cay = base.cayley()
    g1, g2, g3, g4 = indices = [base.index_of(g) for g in gens]
    product = cay[cay[cay[g1][g2]][g3]][g4]
    sign_index = {1: 0, -1: base.minus_index()}
    product_square = cay[product][product]
    anticommuting = all(base.commutation_masks()[1][product] >> g & 1 for g in indices)
    if not anticommuting or product_square not in sign_index.values():
        reason = ("no phase of the generator product anticommutes with the base "
                  f"and squares to {square}")
        return ExtensionResult(base_name, square, False, reason=reason)
    phase = ONE if product_square == sign_index[square] else IMAG_UNIT
    witness = base.elements[product].scale(phase)
    generators = [block_diag(g, g) for g in gens]
    generators.append(block_diag(witness, witness.scale(MINUS_ONE)))
    group = generated_group(tuple(generators))
    spec = SignatureSpec((*(1 if cay[g][g] == 0 else -1 for g in indices), square))
    roles = {f"g{k}": group.index_of(g) for k, g in enumerate(generators, 1)}
    return ExtensionResult(
        base=base_name,
        square=square,
        found=True,
        phase=format_scalar(phase),
        generators=generators,
        order=group.order,
        identified=_named_by_key(group.squaring_key(), EXTENSION_NAMES),
        report=verify_relations(group, spec.relations(), roles),
    )


def sweep_extensions() -> list[ExtensionResult]:
    """Both square choices over every stable base, in catalog order."""
    out = []
    for base in STABLE_NAMES:
        for square in (1, -1):
            out.append(enumerate_extensions(base, square))
    return out
