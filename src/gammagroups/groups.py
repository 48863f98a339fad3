"""Finite matrix group engine.

Groups are generated by breadth-first closure over exact matrices, after
which every structural question (center, classes, subgroups, isomorphism)
is answered on the integer Cayley table alone. A group is built in one of
two ways, each with its table: `MatrixGroup.from_generators` takes the
table of its closure walk (n*k exact products for n elements and k
generators, then n^2 integer lookups), and `Subgroup.as_group` takes the
parent's table restricted to the subgroup. Element 0 is always the
identity.

A subgroup is one integer, the bitmask of its members' indices, from the
closures to `Subgroup` itself. The center is read off the conjugacy
classes, and the scalars 1, i, -1, -i are looked up once per group, so -1
and the elements squaring to +-1 are reads.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from gammagroups.exact import COUNTERS, UNITS, ExactMatrix

DEFAULT_CAP = 4096


def generate_closure(
    generators: Sequence[ExactMatrix], *, cap: int = DEFAULT_CAP
) -> tuple[list[ExactMatrix], list[list[int]]]:
    """Multiplicative closure of the generators, identity first, and its table.

    Elements appear in breadth-first discovery order, so the generators
    themselves (deduplicated) come right after the identity. The walk
    records ``right[k][x] = x * g_k`` (n*k exact products) and, for each
    element y, the earlier element p and generator k with y = p * g_k. By
    associativity x * y = (x * p) * g_k, so column y of the Cayley table
    is column p looked up in ``right[k]``: n^2 integer lookups, no further
    products. Returns the elements and the table, both in discovery order.
    Raises ValueError when the closure grows past ``cap``.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dim = gens[0].dim
    for gen in gens:
        if gen.dim != dim:
            raise ValueError("generators must share one dimension")
        try:
            gen.inverse()
        except ValueError:
            raise ValueError("generators must be invertible") from None
    identity = ExactMatrix.identity(dim)
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in gens]
    found_by = []  # (p, k) for each element after the identity, as p * g_k
    for x, current in enumerate(elements):
        for k, gen in enumerate(gens):
            product = current * gen
            y = index.get(product)
            if y is None:
                if len(elements) >= cap:
                    raise ValueError(f"closure exceeded cap of {cap} elements")
                y = index[product] = len(elements)
                elements.append(product)
                found_by.append((x, k))
            right[k].append(y)
    columns = [list(range(len(elements)))]
    for p, k in found_by:
        columns.append(list(map(right[k].__getitem__, columns[p])))
    return elements, [list(row) for row in zip(*columns)]


def mask_indices(mask: int) -> Iterable[int]:
    """Indices of the set bits of an element bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def certified_map(
    table: Sequence[Sequence[int]],
    image_table: Sequence[Sequence[int]],
    gens: Sequence[int],
    images: Sequence[int],
    size: int,
) -> dict[int, int] | None:
    """The isomorphism sending ``gens`` to ``images``, as {element: image}, or None.

    ``gens`` index ``table`` and ``images`` index ``image_table``; both
    tables have the identity at index 0 and may be one table, for a map
    between two subgroups of one group. The map is extended breadth-first
    from the identity, checking phi(a * g) = phi(a) * phi(g) for every
    reached a and generator g (size*k lookups), and accepted only if it
    reaches ``size`` elements with ``size`` distinct images. When <images>
    has ``size`` elements, as the callers ensure, that certifies an
    isomorphism from <gens> onto <images>: a map that respects right
    multiplication by each generator respects every product, by induction
    on the word length of the right factor, and this one is a bijection.
    """
    mapping = {0: 0}
    queue = [0]
    for a in queue:
        row = table[a]
        image_row = image_table[mapping[a]]
        for g, image in zip(gens, images):
            b = row[g]
            target = image_row[image]
            known = mapping.get(b)
            if known is None:
                mapping[b] = target
                queue.append(b)
            elif known != target:
                return None
    if len(mapping) != size or len(set(mapping.values())) != size:
        return None
    return mapping


class MatrixGroup:
    """A finite group of exact matrices with index-based structure queries.

    ``cayley[a][b]`` is the index of ``elements[a] * elements[b]``. The
    table comes with the elements, from one of the two builders:
    `from_generators` (the closure walk's table) or `Subgroup.as_group`
    (the parent's table restricted to the subgroup).
    """

    def __init__(self, elements: Sequence[ExactMatrix], *, cayley: list[list[int]]):
        self._elements = tuple(elements)
        if not self._elements:
            raise ValueError("group needs at least one element")
        if not self._elements[0].is_identity():
            raise ValueError("elements[0] must be the identity matrix")
        self.dim = self._elements[0].dim
        self._index: dict[ExactMatrix, int] = {}
        for i, matrix in enumerate(self._elements):
            if matrix.dim != self.dim:
                raise ValueError("group elements must share one dimension")
            if matrix in self._index:
                raise ValueError("duplicate element in group")
            self._index[matrix] = i
        self.generator_indices: tuple[int, ...] = ()
        self._cayley = cayley  # kept as given, not copied
        self._inverse: list[int] | None = None
        self._orders: list[int] | None = None
        self._classes: tuple[tuple[int, ...], ...] | None = None
        self._class_sizes: list[int] | None = None
        self._greedy: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._derived: int | None = None
        self._fingerprint: tuple | None = None
        self._commutation: tuple[list[int], list[int]] | None = None
        self._scalars: tuple[int | None, ...] | None = None
        self._unit_squares: dict[int, int] | None = None
        self._sign_reps: int | None = None

    @classmethod
    def from_generators(
        cls, generators: Sequence[ExactMatrix], *, cap: int = DEFAULT_CAP
    ) -> "MatrixGroup":
        elements, table = generate_closure(generators, cap=cap)
        group = cls(elements, cayley=table)
        group.generator_indices = tuple(dict.fromkeys(map(group.index_of, generators)))
        return group

    @property
    def order(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> tuple[ExactMatrix, ...]:
        return self._elements

    def matrix(self, i: int) -> ExactMatrix:
        return self._elements[i]

    def index_of(self, matrix: ExactMatrix) -> int:
        i = self._index.get(matrix)
        if i is None:
            raise ValueError("matrix is not an element of this group")
        return i

    def __contains__(self, matrix: ExactMatrix) -> bool:
        return matrix in self._index

    def scalar_indices(self) -> tuple[int | None, ...]:
        """Indices of the scalars i^p, p = 0..3 (1, i, -1, -i), each None
        when the group lacks it; looked up once."""
        if self._scalars is None:
            one = self._elements[0]
            self._scalars = tuple(self._index.get(one.scale(unit)) for unit in UNITS)
        return self._scalars

    def minus_index(self) -> int | None:
        """Index of -1 in the group, or None when it is not there."""
        return self.scalar_indices()[2]

    def cayley(self) -> list[list[int]]:
        """Full multiplication table, as the group was built with it: the
        closure walk's table from `from_generators`, or the parent's table
        restricted to the subgroup from `Subgroup.as_group`."""
        return self._cayley

    def mul(self, a: int, b: int) -> int:
        return self.cayley()[a][b]

    def inv(self, a: int) -> int:
        if self._inverse is None:
            self._inverse = [row.index(0) for row in self.cayley()]
        return self._inverse[a]

    def element_order(self, a: int) -> int:
        if self._orders is None:
            self._orders = _element_orders(self.cayley())
        return self._orders[a]

    def order_histogram(self) -> dict[int, int]:
        histogram: dict[int, int] = {}
        for a in range(self.order):
            k = self.element_order(a)
            histogram[k] = histogram.get(k, 0) + 1
        return histogram

    def center(self) -> tuple[int, ...]:
        """The central elements, in index order: the one-element classes,
        which `conjugacy_classes` puts first."""
        return tuple(cls[0] for cls in self.conjugacy_classes() if len(cls) == 1)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by (size, smallest member)."""
        if self._classes is None:
            cay = self.cayley()
            n = self.order
            seen = [False] * n
            classes = []
            inverse = [self.inv(g) for g in range(n)]
            for a in range(n):
                if seen[a]:
                    continue
                orbit = {cay[cay[h][a]][g] for g, h in enumerate(inverse)}
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(sorted(orbit)))
            classes.sort(key=lambda cls: (len(cls), cls[0]))
            self._classes = tuple(classes)
            sizes = [0] * n
            for cls in classes:
                for x in cls:
                    sizes[x] = len(cls)
            self._class_sizes = sizes
        return self._classes

    def commutation_masks(self) -> tuple[list[int], list[int]]:
        """Per-element bitmasks of the elements it commutes and anticommutes with.

        Bit j of ``commute[i]`` is set when i*j = j*i, and bit j of
        ``anticommute[i]`` when i*j = -(j*i); a group without -1 has no
        anticommuting pair. Built once with n^2 table lookups.
        """
        if self._commutation is None:
            cay = self.cayley()
            n = self.order
            neg = self.minus_index()
            neg_row = cay[neg] if neg is not None else None
            commute = [0] * n
            anticommute = [0] * n
            for i in range(n):
                row = cay[i]
                for j in range(n):
                    ji = cay[j][i]
                    if row[j] == ji:
                        commute[i] |= 1 << j
                    elif neg_row is not None and row[j] == neg_row[ji]:
                        anticommute[i] |= 1 << j
            self._commutation = (commute, anticommute)
        return self._commutation

    def unit_square_masks(self) -> dict[int, int]:
        """Bitmasks of the non-scalar elements whose square is +1 and -1.

        Keyed by the sign of the square; the scalars 1, -1, i, -i are in
        neither. One read of the diagonal.
        """
        if self._unit_squares is None:
            scalars, cay = self.scalar_indices(), self._cayley
            masks = {1: 0, -1: 0}
            sign = {0: 1, scalars[2]: -1}
            for g in set(range(self.order)).difference(scalars):
                square = sign.get(cay[g][g])
                if square is not None:
                    masks[square] |= 1 << g
            self._unit_squares = masks
        return self._unit_squares

    def squaring_key(self, mask: int | None = None) -> tuple[int, int, int] | None:
        """(order, #{g : g^2 = 1}, |Z|) of the subgroup with this member mask,
        or of the whole group; None when that is not in F.

        F holds the groups that contain -1 and in which every square is 1
        or -1. For G in F, G/<-1> is elementary abelian, so G is a central
        extension of a space V over F2 by <-1>, fixed up to isomorphism by
        the quadratic form q(x) = [x^2 = -1] on V up to isometry (Arf;
        Quillen). Such a form is fixed by dim V, the rank 2r of its polar
        form (the commutator) and the number of its zeros: |Z(G)| gives
        the radical's dimension dim V - 2r, and with it the zero counts of
        the two Arf classes and of a form nonzero on the radical all
        differ. So two groups in F are isomorphic exactly when their keys
        are equal. Every subgroup of a group in F is in F or, without -1,
        elementary abelian with key (n, n, n), the key of no other class.
        A subgroup is given by its member mask (`Subgroup.mask`). With -1
        there, it is in F exactly when the scalars and the elements
        squaring to +-1 (`unit_square_masks`) cover it, whatever the rest
        of the group; without -1, it gets a key only inside a group in F.
        Both keys read the squares off `unit_square_masks`; a whole group's
        center is its one-element classes (`center`), a subgroup's is read
        off `commutation_masks`, |H| lookups.
        """
        scalars, masks = self.scalar_indices(), self.unit_square_masks()
        minus = scalars[2]
        if minus is None:
            return None
        scope = mask if mask is not None and mask >> minus & 1 else (1 << self.order) - 1
        covered = masks[1] | masks[-1] | sum(1 << s for s in scalars if s is not None)
        if scope & ~covered:
            return None
        ones = masks[1] | 1 | 1 << minus  # the scalars squaring to 1 are 1 and -1
        if mask is None:
            return self.order, ones.bit_count(), len(self.center())
        commute = self.commutation_masks()[0]
        center = sum(1 for h in mask_indices(mask) if commute[h] & mask == mask)
        return mask.bit_count(), (ones & mask).bit_count(), center

    def sign_representatives(self) -> int:
        """Mask of one element of each pair {s, -s}: bit s is set when s is the
        lower index of the two, read off the row of -1 in the Cayley table.

        Raises ValueError for a group without -1, where the pairs do not exist.
        """
        if self._sign_reps is None:
            neg = self.minus_index()
            if neg is None:
                raise ValueError("sign representatives need -1 in the group")
            row = self._cayley[neg]
            self._sign_reps = sum(1 << s for s in range(self.order) if s <= row[s])
        return self._sign_reps

    def anticommuting_triples(self, squares: Sequence[int]) -> Iterator[tuple[int, int, int]]:
        """Pairwise anticommuting triples with these squares, one per set.

        Generators with equal squares are enumerated with increasing index,
        which visits every unordered combination exactly once, and only the
        lower index of each pair {s, -s} is taken (`sign_representatives`).
        This is exact: anticommuting s1, s2 give -1 = s1*s2*s1^-1*s2^-1, so
        -s has the square, the commutation pattern and the generated group
        of s, and a tuple of representatives, re-sorted within equal
        squares, is elementwise no larger, so every subgroup keeps its
        first tuple. Triples come in increasing (s1, s2, s3).
        """
        anti = self.commutation_masks()[1]
        reps = self.sign_representatives()
        masks = {sign: mask & reps for sign, mask in self.unit_square_masks().items()}
        for s1 in mask_indices(masks[squares[0]]):
            second = anti[s1] & masks[squares[1]]
            if squares[1] == squares[0]:
                second &= -2 << s1  # only indices above s1
            for s2 in mask_indices(second):
                third = anti[s1] & anti[s2] & masks[squares[2]]
                if squares[2] == squares[1]:
                    third &= -2 << s2
                elif squares[2] == squares[0]:
                    third &= -2 << s1
                for s3 in mask_indices(third):
                    yield s1, s2, s3

    def extend(
        self, members: Sequence[int], mask: int, gens: Sequence[int], s: int,
        limit: int | None = None,
    ) -> int | None:
        """Member mask of <H, s>, or None once it would pass ``limit`` elements.

        ``gens`` generate H, ``members`` lists it and ``mask`` has its bits.
        Dimino's step: <H, s> is a union of right cosets H*r (|H| lookups
        each), from H and H*s on; a product r*g of a representative r and a
        generator g outside the union adds the coset H*(r*g). H*g = H for g
        in ``gens`` spares the identity that check. The union ends closed
        under right multiplication by the generators, so it is <H, s>.
        """
        if mask >> s & 1:
            return mask
        cay = self._cayley
        gens = (*gens, s)
        size, reps = len(members), [0]
        for r in reps:
            row = cay[r]
            for g in gens if r else (s,):
                x = row[g]
                if mask >> x & 1:
                    continue
                size += len(members)
                if limit is not None and size > limit:
                    return None
                for h in members:
                    mask |= 1 << cay[h][x]
                reps.append(x)
        return mask

    def _grow(self, seed: Iterable[int]) -> tuple[int, list[int], list[int]]:
        """Member mask of the subgroup ``seed`` generates, the seed elements
        that grew it and its order after each: one `extend` per seed
        element not yet inside."""
        mask, members, gens, sizes = 1, [0], [], []
        for s in seed:
            if not mask >> s & 1:
                mask = self.extend(members, mask, gens, s)
                members = list(mask_indices(mask))
                gens.append(s)
                sizes.append(len(members))
        return mask, gens, sizes

    def closure_indices(self, seed: Iterable[int]) -> frozenset[int]:
        """The indices of the subgroup that ``seed`` generates (`_grow`)."""
        return frozenset(mask_indices(self._grow(seed)[0]))

    def _commutator(self, a: int, b: int) -> int:
        cay = self.cayley()
        return cay[cay[cay[self.inv(a)][self.inv(b)]][a]][b]

    def derived_subgroup(self) -> "Subgroup":
        """Subgroup generated by all commutators, as a normal closure.

        [G, G] is the normal closure N of the commutators [a, b] of a
        generating set: N lies in [G, G] and is normal, and G/N is
        generated by commuting images, so it is abelian and N holds every
        commutator. N is taken as the closure of the conjugates
        g^-1 [a, b] g over the greedy generators a, b and every g:
        k^2 * n lookups for k generators, in place of n^2 commutators.
        """
        if self._derived is None:
            cay = self.cayley()
            gens = self._greedy_generators()[0]
            commutators = {self._commutator(a, b) for a in gens for b in gens}
            self._derived = self._grow(
                cay[cay[self.inv(g)][c]][g] for c in commutators for g in range(self.order)
            )[0]
        return Subgroup(self, self._derived)

    def _squares_commutators_closure(self) -> int:
        # <squares, commutators> = <squares, [G, G]>, and the derived
        # subgroup already holds every commutator.
        cay = self.cayley()
        derived = mask_indices(self.derived_subgroup().mask)
        return self._grow(itertools.chain(derived, (cay[a][a] for a in range(self.order))))[0]

    def frattini_subgroup(self) -> "Subgroup":
        """Frattini subgroup, via the squares-and-commutators formula.

        That formula is specific to groups of 2-power order, so anything
        else is rejected.
        """
        if self.order & (self.order - 1):
            raise ValueError("Frattini computation requires a group of 2-power order")
        return Subgroup(self, self._squares_commutators_closure())

    def minimal_generator_count(self) -> int:
        """Size of a minimal generating set (groups of 2-power order only)."""
        quotient = self.order // self.frattini_subgroup().order
        return quotient.bit_length() - 1

    def _quotient(self, normal: int) -> tuple[list[int], list[list[int]]]:
        """Coset id per element and the coset multiplication table, for the
        normal subgroup with this member mask."""
        cay = self.cayley()
        n = self.order
        members = list(mask_indices(normal))
        coset_of = [-1] * n
        reps: list[int] = []
        for a in range(n):
            if coset_of[a] >= 0:
                continue
            cid = len(reps)
            reps.append(a)
            for h in members:
                coset_of[cay[a][h]] = cid
        return coset_of, [[coset_of[cay[ra][rb]] for rb in reps] for ra in reps]

    def abelian_invariants(self) -> tuple[int, ...]:
        """Elementary divisors of the abelianization, sorted ascending."""
        coset_of, table = self._quotient(self.derived_subgroup().mask)
        q = len(table)
        orders = _element_orders(table)
        invariants: list[int] = []
        for p in _prime_factors(q):
            # counts[k] = number of quotient elements x with x^(p^k) = identity
            counts = [
                sum(1 for d in orders if p**k % d == 0)
                for k in range(_max_p_exp(q, p) + 1)
            ]
            # layer[k-1] = number of cyclic factors of order at least p^k
            layer = [
                _max_p_exp(counts[k] // counts[k - 1], p)
                for k in range(1, len(counts))
            ]
            for k in range(len(layer)):
                copies = layer[k] - (layer[k + 1] if k + 1 < len(layer) else 0)
                invariants.extend([p ** (k + 1)] * copies)
        return tuple(sorted(invariants))

    def _index_two_subgroup_masks(self) -> list[int]:
        """Member masks of the index-two subgroups: the kernels of the
        nonzero characters of G/N onto F2, N = <squares, commutators>.
        Each coset of N gets its vector over F2, one new bit for each
        coset outside the span of those before it."""
        coset_of, table = self._quotient(self._squares_commutators_closure())
        vec, rank = {0: 0}, 0
        for c in range(len(table)):
            if c not in vec:
                for a, v in list(vec.items()):
                    vec[table[a][c]] = v | 1 << rank
                rank += 1
        if len(vec) != len(table):
            raise ValueError("quotient is not elementary abelian")
        vectors = [vec[c] for c in coset_of]
        return [
            sum(1 << a for a, v in enumerate(vectors) if not (v & character).bit_count() & 1)
            for character in range(1, 1 << rank)
        ]

    def subgroups_of_order(self, k: int) -> list["Subgroup"]:
        """All subgroups of the given order, sorted by their index tuples.

        Index-2 subgroups are read off as kernels of sign characters, which
        avoids any search; other orders come from the subgroup walk of
        `_subgroup_masks`, which needs no solvability.
        """
        n = self.order
        if k <= 0 or n % k:
            return []
        if k == 1:
            return [Subgroup(self, 1)]
        if k == n:
            return [Subgroup(self, (1 << n) - 1)]
        if k * 2 == n:
            masks = self._index_two_subgroup_masks()
        else:
            masks = [m for m in self._subgroup_masks(k) if m.bit_count() == k]
        subs = [Subgroup(self, m) for m in masks]
        subs.sort(key=Subgroup.sorted_indices)
        return subs

    def _subgroup_masks(self, k: int) -> set[int]:
        """Member masks of every subgroup whose order divides ``k``.

        A breadth-first walk from {1}: each subgroup H found is extended
        (`extend`, limited to ``k`` elements) by one element g of each
        right coset H*g outside H, since every h*g gives <H, h*g> =
        <H, g>. A subgroup K of order dividing k is reached along a chain
        of its own subgroups, each one element larger than the last, and
        by Lagrange each of them has an order that divides k, so the walk
        drops every other order. This holds in every finite group.
        """
        cay = self.cayley()
        found = {1}
        queue: list[tuple[int, tuple[int, ...]]] = [(1, ())]
        for mask, gens in queue:
            members = list(mask_indices(mask))
            tried = mask
            for g in range(1, self.order):
                if tried >> g & 1:
                    continue
                for h in members:
                    tried |= 1 << cay[h][g]
                grown = self.extend(members, mask, gens, g, k)
                if grown is None or grown in found or k % grown.bit_count():
                    continue
                found.add(grown)
                queue.append((grown, (*gens, g)))
        return found

    def fingerprint(self) -> tuple:
        """Cheap isomorphism invariants, used to reject mismatches early: the
        order histogram, the class sizes and the abelian invariants, which fix
        the order, exponent, center order and |[G, G]| = order / |G/[G, G]|."""
        if self._fingerprint is None:
            self._fingerprint = (
                tuple(sorted(self.order_histogram().items())),
                tuple(len(cls) for cls in self.conjugacy_classes()),
                self.abelian_invariants(),
            )
        return self._fingerprint

    def _greedy_generators(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Greedy generators g_1..g_k and the orders of <g_1..g_j>, j = 1..k.

        Each g_j is the smallest index outside <g_1..g_(j-1)>: `_grow`
        over every index in turn.
        """
        if self._greedy is None:
            _, gens, sizes = self._grow(range(1, self.order))
            self._greedy = (tuple(gens), tuple(sizes))
        return self._greedy

    def isomorphism_map(self, other: "MatrixGroup") -> list[int] | None:
        """An isomorphism onto ``other`` as an image list, or None.

        Groups with different fingerprints are rejected at once. Otherwise
        a depth-first search picks the images of the greedy generators
        g_1..g_k one at a time, among the elements of ``other`` with the
        same order and class size, and keeps a choice at depth j only if
        `certified_map` accepts g_1..g_j -> images on the two tables with
        |<g_1..g_j>| elements, that is, only if it extends to an injective
        homomorphism on <g_1..g_j>. Pruning there loses no isomorphism,
        since every isomorphism restricts to one on each prefix subgroup.
        A choice that passes also generates an image subgroup of the
        prefix's order, so the search visits the same surviving branches
        in the same order as a search pruned on that order alone, and
        returns the same first map. At depth k the prefix subgroup is the
        whole group, so the last certificate certifies the returned map.
        """
        COUNTERS["iso.calls"] += 1
        if self.fingerprint() != other.fingerprint():
            COUNTERS["iso.fingerprint_rejects"] += 1
            return None
        n = self.order
        if n == 1:
            return [0]
        table, other_table = self.cayley(), other.cayley()
        gens, prefix_sizes = self._greedy_generators()
        other_profile = [other._element_profile(b) for b in range(n)]
        wanted = [self._element_profile(g) for g in gens]
        candidates = [[b for b in range(1, n) if other_profile[b] == want] for want in wanted]

        def extend(images: list[int]) -> list[int] | None:
            depth = len(images)
            for b in candidates[depth]:
                if b in images:
                    continue
                COUNTERS["iso.nodes"] += 1
                grown = images + [b]
                mapping = certified_map(
                    table, other_table, gens[: depth + 1], grown, prefix_sizes[depth]
                )
                if mapping is None:
                    continue
                if depth + 1 == len(gens):
                    return [mapping[a] for a in range(n)]
                result = extend(grown)
                if result is not None:
                    return result
            return None

        return extend([])

    def _element_profile(self, a: int) -> tuple[int, int]:
        """Element order and class size; class size 1 marks the center."""
        if self._class_sizes is None:
            self.conjugacy_classes()
        return self.element_order(a), self._class_sizes[a]

    def is_isomorphic(self, other: "MatrixGroup") -> bool:
        return self.isomorphism_map(other) is not None

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, dim={self.dim})"


class Subgroup:
    """A subgroup of a MatrixGroup, held as its member mask: bit i is set
    when the parent's element i is a member."""

    def __init__(self, parent: MatrixGroup, mask: int):
        self.parent = parent
        self.mask = mask
        self._group: MatrixGroup | None = None

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    @property
    def indices(self) -> frozenset[int]:
        """The member indices, as a read-only set."""
        return frozenset(mask_indices(self.mask))

    def sorted_indices(self) -> tuple[int, ...]:
        """The member indices, ascending, so the identity comes first."""
        return tuple(mask_indices(self.mask))

    def as_group(self) -> MatrixGroup:
        """Standalone group over the same matrices, reusing the parent table;
        built on the first call and kept."""
        if self._group is not None:
            return self._group
        local_order = self.sorted_indices()
        local_of = {parent_i: j for j, parent_i in enumerate(local_order)}
        parent_cay = self.parent.cayley()
        cayley = [
            list(map(local_of.__getitem__, map(parent_cay[a].__getitem__, local_order)))
            for a in local_order
        ]
        self._group = MatrixGroup(
            [self.parent.matrix(i) for i in local_order], cayley=cayley
        )
        return self._group

    def __contains__(self, item: int | ExactMatrix) -> bool:
        if isinstance(item, ExactMatrix):
            if item not in self.parent:
                return False
            item = self.parent.index_of(item)
        return bool(self.mask >> item & 1)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


def _element_orders(table: Sequence[Sequence[int]]) -> list[int]:
    """The order of each element of a group table with the identity at 0,
    by powering it up to the identity."""
    orders = [1] * len(table)
    for x in range(1, len(table)):
        power, count = x, 1
        while power != 0:
            power = table[power][x]
            count += 1
        orders[x] = count
    return orders


def _prime_factors(n: int) -> list[int]:
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def _max_p_exp(n: int, p: int) -> int:
    exp = 0
    while n % p == 0:
        exp += 1
        n //= p
    return exp
