"""Ground sets, finite subsets and families of finite subsets.

A ground set fixes an ordering of n distinct element labels.  A finite
subset is coded as an n-bit integer (bit i set iff element i present), so
the 2**n subsets are exactly the codes 0 .. 2**n - 1.  A family of finite
subsets is coded the same way one level up: an integer over bit positions
0 .. 2**n - 1, where bit c is set iff the subset with code c belongs to
the family.  All set-level operators below (selections, supersets, wedge,
diagonal) reduce to bit arithmetic on these codes, which keeps every
enumeration deterministic and fast.

All values here are immutable after construction and safe to share.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

DEFAULT_GROUND_CAP = 16
# A dense endorelation is 2**n x 2**n bits; refuse above this many bits
# unless explicitly overridden (n = 13 for an endorelation).
DEFAULT_MATRIX_BITS = 1 << 26


class CapExceededError(Exception):
    """Raised when an operation would exceed the configured size cap."""


class GroundMismatchError(ValueError):
    """Raised when operands live over different ground sets."""


class TheoremViolationError(Exception):
    """A verified mathematical invariant failed; indicates an internal bug."""


def ground_cap() -> int:
    env = os.environ.get("COVERKIT_CAP")
    return int(env) if env else DEFAULT_GROUND_CAP


@dataclass(frozen=True)
class GroundSet:
    """An ordered tuple of distinct element labels; indices are stable."""

    names: tuple[str, ...]
    # derived from ``names`` once; left out of equality, hashing and repr
    size: int = field(init=False, compare=False, repr=False)
    num_subsets: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        size = len(self.names)
        if len(set(self.names)) != size:
            raise ValueError("ground set labels must be distinct")
        if size > ground_cap():
            raise CapExceededError(
                f"ground set of size {size} exceeds cap {ground_cap()}"
            )
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "num_subsets", 1 << size)

    @staticmethod
    def of(*names: str) -> "GroundSet":
        return GroundSet(tuple(names))

    def index(self, name: str) -> int:
        return self.names.index(name)

    def subset(self, names=()) -> "FinSubset":
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return FinSubset(self, bits)

    def family(self, subsets=()) -> "Family":
        mask = 0
        for s in subsets:
            if isinstance(s, FinSubset):
                if s.ground != self:
                    raise GroundMismatchError("subset over a different ground set")
                mask |= 1 << s.bits
            else:
                mask |= 1 << self.subset(s).bits
        return Family(self, mask)

    def family_from_mask(self, mask: int) -> "Family":
        return Family(self, mask)

    def __repr__(self):
        return f"GroundSet({','.join(self.names)})"


@dataclass(frozen=True)
class FinSubset:
    """A subset of a ground set, coded as an n-bit integer."""

    ground: GroundSet
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < self.ground.num_subsets:
            raise ValueError(f"subset code {self.bits} out of range")

    def names(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.ground.names) if self.bits >> i & 1)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.ground.size) if self.bits >> i & 1)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def __len__(self):
        return bin(self.bits).count("1")

    def __contains__(self, name: str) -> bool:
        return bool(self.bits >> self.ground.index(name) & 1)

    def union(self, other: "FinSubset") -> "FinSubset":
        _same_ground(self, other)
        return FinSubset(self.ground, self.bits | other.bits)

    def intersection(self, other: "FinSubset") -> "FinSubset":
        _same_ground(self, other)
        return FinSubset(self.ground, self.bits & other.bits)

    def issubset(self, other: "FinSubset") -> bool:
        _same_ground(self, other)
        return self.bits | other.bits == other.bits

    def meets(self, other: "FinSubset") -> bool:
        _same_ground(self, other)
        return bool(self.bits & other.bits)

    def __repr__(self):
        return "{" + ",".join(self.names()) + "}"


@dataclass(frozen=True)
class Family:
    """A set of finite subsets, coded as a bitmask over subset codes.

    Members are canonically ordered ascending by subset code, so every
    iteration over a family is deterministic.
    """

    ground: GroundSet
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.ground.num_subsets:
            raise ValueError("family mask out of range")

    def member_codes(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def members(self) -> tuple[FinSubset, ...]:
        return tuple(FinSubset(self.ground, c) for c in iter_bits(self.mask))

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __len__(self):
        return bin(self.mask).count("1")

    def __contains__(self, subset: FinSubset) -> bool:
        _same_ground(self, subset)
        return bool(self.mask >> subset.bits & 1)

    def union(self, other: "Family") -> "Family":
        _same_ground(self, other)
        return Family(self.ground, self.mask | other.mask)

    def intersection(self, other: "Family") -> "Family":
        _same_ground(self, other)
        return Family(self.ground, self.mask & other.mask)

    def __repr__(self):
        return "Family(" + ", ".join(map(repr, self.members())) + ")"


def _same_ground(a, b):
    if a.ground != b.ground:
        raise GroundMismatchError("operands live over different ground sets")


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def meets_and_joins(full: int, masks) -> tuple[list[int], list[int]]:
    """The intersection and the union of the selected members of ``masks``,
    for every subset code over its positions.

    Entry c of the first list ANDs ``masks[i]`` for the bits i of c, and is
    ``full`` for c = 0; entry c of the second ORs them, and is 0 for c = 0.
    Each entry comes from the code without its highest member (the table
    doubles once per mask), so both lists cost O(2**len(masks)).
    """
    meets = [full]
    joins = [0]
    for m in masks:
        meets += [x & m for x in meets]
        joins += [x | m for x in joins]
    return meets, joins


class SubsetTables:
    """Per-arity lookup tables used by the bit-parallel operators.

    For each subset code F of an n-element ground set:
      meets[F]    -- family mask of all G with G & F != 0
      supersets[F]-- family mask of all G with F <= G
      subsets[F]  -- family mask of all G with G <= F
    full is the family mask containing every subset code.
    """

    def __init__(self, n: int):
        size = 1 << n
        self.n = n
        self.size = size
        self.full = (1 << size) - 1
        subsets = []
        for f in range(size):
            m = 0
            sub = f
            while True:
                m |= 1 << sub
                if sub == 0:
                    break
                sub = (sub - 1) & f
            subsets.append(m)
        self.subsets = subsets
        # G disjoint from F  <=>  G is a subset of the complement of F
        comp = size - 1
        self.meets = [self.full & ~subsets[comp ^ f] for f in range(size)]
        self.supersets = [0] * size
        for f in range(size):
            base = comp ^ f
            sub = base
            while True:
                self.supersets[f] |= 1 << (f | sub)
                if sub == 0:
                    break
                sub = (sub - 1) & base
        self.contains_elem = [self.supersets[1 << i] for i in range(n)]
        self.singleton_codes = [1 << i for i in range(n)]


@lru_cache(maxsize=None)
def tables(n: int) -> SubsetTables:
    return SubsetTables(n)


# -- family-level operators on raw masks ------------------------------------

def selections_mask(n: int, fam_mask: int) -> int:
    """Codes of all G meeting every member of the family (its transversals)."""
    t = tables(n)
    out = t.full
    m = fam_mask
    while m and out:
        low = m & -m
        out &= t.meets[low.bit_length() - 1]
        m ^= low
    return out


def supersets_mask(n: int, fam_mask: int) -> int:
    t = tables(n)
    out = 0
    for f in iter_bits(fam_mask):
        out |= t.supersets[f]
    return out


def wedge_mask(n: int, a_mask: int, b_mask: int) -> int:
    out = 0
    for f in iter_bits(a_mask):
        for g in iter_bits(b_mask):
            out |= 1 << (f | g)
    return out


def diagonal_masks(n: int, a_mask: int, b_mask: int) -> bool:
    return selections_mask(n, a_mask) & ~supersets_mask(n, b_mask) == 0


# -- public Family-level API -------------------------------------------------

def selections(fam: Family) -> Family:
    """All finite subsets meeting every member of ``fam``.

    The empty family selects everything; any family containing the empty
    subset selects nothing.  Computed by scanning all candidate subsets.
    """
    return Family(fam.ground, selections_mask(fam.ground.size, fam.mask))


def supersets(fam: Family) -> Family:
    """All finite subsets containing at least one member of ``fam``."""
    return Family(fam.ground, supersets_mask(fam.ground.size, fam.mask))


def wedge(fam_a: Family, fam_b: Family) -> Family:
    """Pairwise unions {F | G : F in fam_a, G in fam_b}, deduplicated."""
    _same_ground(fam_a, fam_b)
    return Family(fam_a.ground, wedge_mask(fam_a.ground.size, fam_a.mask, fam_b.mask))


def diagonal(fam_a: Family, fam_b: Family) -> bool:
    """True iff every selection of ``fam_a`` contains a member of ``fam_b``."""
    _same_ground(fam_a, fam_b)
    return diagonal_masks(fam_a.ground.size, fam_a.mask, fam_b.mask)


def minimal_members_mask(n: int, fam_mask: int) -> int:
    """Optional prefilter: drop members with a proper subset in the family.

    Selections are unchanged by this reduction, since a transversal of the
    minimal members already meets every superset of one of them.
    """
    t = tables(n)
    out = 0
    for f in iter_bits(fam_mask):
        if fam_mask & t.subsets[f] & ~(1 << f) == 0:
            out |= 1 << f
    return out


def all_groundsets_named(n: int) -> GroundSet:
    """A convenience ground set a, b, c, ... used by tests and fixtures."""
    letters = "abcdefghijklmnop"
    if n > len(letters):
        names = tuple(f"e{i}" for i in range(n))
    else:
        names = tuple(letters[:n])
    return GroundSet(names)
