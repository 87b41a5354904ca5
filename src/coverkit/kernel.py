"""Ground sets, finite subsets and families of finite subsets.

A ground set fixes an ordering of n distinct element labels.  A finite
subset is coded as an n-bit integer (bit i set iff element i present), so
the 2**n subsets are exactly the codes 0 .. 2**n - 1.  A family of finite
subsets is coded the same way one level up: an integer over bit positions
0 .. 2**n - 1, where bit c is set iff the subset with code c belongs to
the family.  A relation between subset lattices is a bit matrix: row f is
the family of codes related to f.

The operators below work on whole masks rather than member by member.
Adding element i to every code lacking it is a shift of the family mask
by 2**i, so the upper closure (``supersets_mask``) takes n shifts and
masks, and the lower closure of a matrix's rows (``lower_closure_rows``)
is the one zeta pass over the subset lattice.  Complementing every
member reverses the order of the 2**n bits of a family mask
(``complements_mask``), so the selections of a large family are its
upper closure, complemented and reversed (``selections_mask``).
``RowFold`` is the one fold of the rows that a mask selects: a relation
with few distinct rows (a lower one) is folded once per distinct row.
``meeting_rows`` is the one tabulation of a relation that compares a
key of F with a key of G: the rows of the keys that meet, each
distinct key taken once.

A whole bit matrix is one integer too (``pack_rows``): row f sits at bit
f * 2**s, each row padded to 2**s bits, s = max(n_left, n_right, 3), so
the rows are whole bytes and lie in a square of side 2**s.  At s = 3,
every shape with both sides at most 3, each row is one byte, and the
matrix packs and unpacks as a bytes object.  Shifting it by 2**i moves
every entry to the column with i added, and by 2**(s+i) to the row with
i added.  ``matrix_plan`` holds one round per element for each shape:
the shift 2**(s+j) - 2**j and the swap mask ``_swap_masks(s)[j]`` of
the entries whose row lacks j and whose column has it.  Those s masks,
4**s bits each, are the only matrix-sized masks kept per side; the rows
or columns with or without j are a swap mask ORed with its copy shifted
by one block.  ``transpose`` exchanges row and column codes by one
masked block swap per round, and the structural predicates of
``relations`` are a few shifts and ANDs per element.
Every enumeration stays deterministic.

All values here are immutable after construction and safe to share.
``memo`` is the one way an object keeps a value derived from it, and
``Report`` the one shape of a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

# The largest ground set: a relation between two such grounds is a
# 2**13 x 2**13 bit matrix, 2**26 bits.
MAX_GROUND = 13


class memo:
    """A derived value: computed by the method on the first read and kept
    in the instance ``__dict__``, which later reads find first.  No lock:
    racing first reads may each compute, and the first value stored wins.
    Another object's memo is filled only by ``vars(obj).setdefault``."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))


class CapExceededError(Exception):
    """Raised when a size cap is exceeded: the ground-set limit
    ``MAX_GROUND`` or the cap of one computation."""


class GroundMismatchError(ValueError):
    """Raised when operands live over different ground sets."""


class TheoremViolationError(Exception):
    """A verified mathematical invariant failed; indicates an internal bug."""


class Report:
    """A verdict: its fields, and the ``violations()`` each subclass
    states.  It passed iff nothing is violated, and its dict is its
    fields with the violations added."""

    def passed(self) -> bool:
        return not self.violations()

    def to_dict(self) -> dict:
        return dict(vars(self), violations=self.violations())


@dataclass(frozen=True)
class GroundSet:
    """An ordered tuple of at most ``MAX_GROUND`` distinct element labels;
    indices are stable."""

    names: tuple[str, ...]
    # derived from ``names`` once; left out of equality, hashing and repr
    size: int = field(init=False, compare=False, repr=False)
    num_subsets: int = field(init=False, compare=False, repr=False)

    def __eq__(self, other):
        # the dataclass comparison, after an identity test: the two sides
        # of a relation and its system mostly share one ground object
        if self is other:
            return True
        if other.__class__ is not GroundSet:
            return NotImplemented
        return self.names == other.names

    def __post_init__(self):
        size = len(self.names)
        if len(set(self.names)) != size:
            raise ValueError("ground set labels must be distinct")
        if size > MAX_GROUND:
            raise CapExceededError(
                f"ground set of size {size} exceeds cap {MAX_GROUND}"
            )
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "num_subsets", 1 << size)

    @staticmethod
    def of(*names: str) -> "GroundSet":
        return GroundSet(tuple(names))

    def index(self, name: str) -> int:
        return self.names.index(name)

    @memo
    def _bit(self) -> dict:
        """Label -> its one-bit subset code, built on the first ``code``."""
        return {name: 1 << i for i, name in enumerate(self.names)}

    def code(self, names) -> int:
        """The subset code of ``names``: a subset code, a FinSubset over
        this ground set or an iterable of labels.  A code outside
        0 .. 2**n - 1 raises ValueError naming that range, a FinSubset
        over another ground set GroundMismatchError, a label outside the
        ground set ValueError naming it, and an unhashable one TypeError."""
        if isinstance(names, int):
            if not 0 <= names < self.num_subsets:
                raise ValueError(f"subset code {names} outside 0..{self.num_subsets - 1}")
            return names
        if isinstance(names, FinSubset):
            if names.ground != self:
                raise GroundMismatchError("subset over a different ground set")
            return names.bits
        bit = self._bit
        bits = 0
        try:
            for name in names:
                bits |= bit[name]
        except KeyError:
            raise ValueError(f"{name!r} is not an element of {self!r}") from None
        return bits

    def subset(self, names=()) -> "FinSubset":
        return FinSubset(self, self.code(names))

    def family_from_mask(self, mask: int) -> "Family":
        return Family(self, mask)

    def __repr__(self):
        return f"GroundSet({','.join(self.names)})"


@dataclass(frozen=True, slots=True)
class FinSubset:
    """A subset of a ground set, coded as an n-bit integer."""

    ground: GroundSet
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < self.ground.num_subsets:
            raise ValueError(f"subset code {self.bits} out of range")

    def names(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.ground.names) if self.bits >> i & 1)

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, name: str) -> bool:
        return bool(self.bits >> self.ground.index(name) & 1)

    def __repr__(self):
        return "{" + ",".join(self.names()) + "}"


@dataclass(frozen=True, slots=True)
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

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, subset: FinSubset) -> bool:
        _same_ground(self, subset)
        return bool(self.mask >> subset.bits & 1)

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


def meets_of(full: int, masks) -> list[int]:
    """The intersection of the selected members of ``masks``, for every
    subset code over its positions.

    Entry c ANDs ``masks[i]`` for the bits i of c, and is ``full`` for
    c = 0.  Each entry comes from the code without its highest member
    (the table doubles once per mask), so the list costs O(2**len(masks)).
    """
    meets = [full]
    for m in masks:
        meets += [x & m for x in meets]
    return meets


def joins_of(masks) -> list[int]:
    """The union of the selected members of ``masks``, for every subset
    code over its positions (0 for c = 0), built as ``meets_of``."""
    joins = [0]
    for m in masks:
        joins += [x | m for x in joins]
    return joins


def _periodic(block: int, period: int, total: int) -> int:
    """``block``, ``period`` bits long, repeated to fill ``total`` bits
    (both lengths powers of two): the pattern doubles once per step."""
    while period < total:
        block |= block << period
        period <<= 1
    return block


def _codes_with(i: int, size: int) -> int:
    """Family mask of the codes below ``size`` that contain element i:
    runs of 2**i ones after 2**i zeros."""
    return _periodic(((1 << (1 << i)) - 1) << (1 << i), 2 << i, size)


class SubsetTables:
    """Per-arity lookup tables used by the bit-parallel operators.

    For each subset code F of an n-element ground set:
      meets[F]    -- family mask of all G with G & F != 0
      subsets[F]  -- family mask of all G with G <= F
    and for each element i:
      contains_elem[i] -- family mask of the codes containing i
      lacks_elem[i]    -- family mask of the codes without i
      up_steps[i]      -- lacks_elem[i] with 2**i, the mask and the shift
                          that add i to every code lacking it
    full is the family mask containing every subset code.  loop_max is
    the most members a family may have for ``selections_mask`` to fold
    its selections member by member.
    """

    def __init__(self, n: int):
        size = 1 << n
        self.n = n
        self.size = size
        self.full = (1 << size) - 1
        # the subsets of F + {i} (F without i) are those of F, and those
        # shifted up by 2**i: the table doubles once per element
        subsets = [1]
        for i in range(n):
            subsets += [m | m << (1 << i) for m in subsets]
        self.subsets = subsets
        # G disjoint from F  <=>  G is a subset of the complement of F
        comp = size - 1
        self.meets = [self.full & ~subsets[comp ^ f] for f in range(size)]
        self.contains_elem = [_codes_with(i, size) for i in range(n)]
        self.lacks_elem = [self.full ^ c for c in self.contains_elem]
        self.up_steps = tuple((lacks, 1 << i) for i, lacks in enumerate(self.lacks_elem))
        # one AND per member against n shifts and one bit reversal: timed
        # on random families and up-sets (Python 3.11), the whole-mask
        # form is the faster from 8-12 members at n = 4..13, and never
        # at n <= 3, where no family has more than 8 members
        self.loop_max = 8


@lru_cache(maxsize=None)
def tables(n: int) -> SubsetTables:
    return SubsetTables(n)


# -- bit-matrix primitives ---------------------------------------------------

@lru_cache(maxsize=None)
def _swap_masks(s: int) -> tuple[int, ...]:
    """Entry j marks the entries (f, g) of a 2**s x 2**s bit matrix
    packed row after row (entry (f, g) at bit (f << s) | g) whose row
    code f lacks j and whose column code g has it.

    These s masks, 4**s bits each, are the only matrix-sized masks kept
    per side, built on the first matrix of that side.  The other masks
    of rows or columns with or without j derive from entry j with one
    shift and one OR.
    """
    w = 1 << s
    masks = []
    for j in range(s):
        # columns with bit j, in the rows without bit j
        in_row = _codes_with(j, w)
        masks.append(_periodic(_periodic(in_row, w, w << j), w << (j + 1), w << s))
    return tuple(masks)


@lru_cache(maxsize=None)
def matrix_plan(n_left: int, n_right: int):
    """Side exponent s, bytes per packed row, the transpose rounds, and
    the byte slice of each row of the transpose, for one matrix shape.

    A packed matrix stores row f in bits f * 2**s .. (f + 1) * 2**s - 1,
    s = max(n_left, n_right, 3): the rows are padded to the side of the
    square that holds both shapes, and to at least whole bytes.  Round j,
    for each element j of the larger side, is the shift 2**(s+j) - 2**j
    that moves entry (f, g | {j}) to (f | {j}, g) for f and g lacking j,
    with ``_swap_masks(s)[j]``, the mask of those entries.
    """
    s = max(n_left, n_right, 3)
    w = 1 << s
    nbytes = w >> 3
    swaps = _swap_masks(s)
    rounds = tuple(((w << j) - (1 << j), swaps[j]) for j in range(max(n_left, n_right)))
    slices = tuple(slice(i, i + nbytes) for i in range(0, nbytes << n_right, nbytes))
    return s, nbytes, rounds, slices


_from_bytes = int.from_bytes


def pack_rows(rows, n_left: int, n_right: int) -> int:
    """The rows of a bit matrix (2**n_left masks over 2**n_right codes) as
    one integer, row f at bit f * 2**s (``matrix_plan``).  Rows of one
    byte (s = 3) are the bytes themselves."""
    nbytes = matrix_plan(n_left, n_right)[1]
    if nbytes == 1:
        return _from_bytes(bytes(rows), "little")
    return _from_bytes(b"".join([r.to_bytes(nbytes, "little") for r in rows]), "little")


def transpose(packed: int, n_left: int, n_right: int) -> tuple[int, ...]:
    """Columns of a bit matrix packed by ``pack_rows``: entry g of the
    result is the mask of the f whose row has bit g.

    The packed rows are the top-left corner of a square of side 2**s.
    One masked block swap per round of ``matrix_plan`` (Warren, Hacker's
    Delight, 7-3) transposes the whole square at once: round j exchanges
    bit j of the column code with bit j of the row code.  Codes below
    2**max(n_left, n_right) have no higher bit, so only those rounds
    move anything, and the first 2**n_right rows of the result are the
    columns, read off as bytes when each is one byte.  Whole-integer
    operations only, so the cost does not depend on how many bits are
    set.
    """
    s, nbytes, rounds, slices = matrix_plan(n_left, n_right)
    m = packed
    for shift, mask in rounds:
        t = (m ^ m >> shift) & mask
        m ^= t | t << shift
    data = m.to_bytes(nbytes << s, "little")
    if nbytes == 1:
        return tuple(data[:1 << n_right])
    return tuple([_from_bytes(data[sl], "little") for sl in slices])


class RowFold:
    """The AND of the rows that a mask selects, for one list of rows.

    ``fold(sel, out)`` is ``out`` ANDed with rows[x] for every bit x of
    ``sel``.  AND is idempotent, so equal rows add nothing after the
    first: grouping the codes by their row value (``classes``, each
    distinct value with the mask of the codes holding it), the fold is
    also ``out`` ANDed with every value whose codes meet ``sel``.  Each
    call takes the shorter loop: one AND per distinct value when there
    are fewer of them than bits of ``sel``, else one per bit.  Lower
    relations have few distinct rows (a lattice cover's row depends only
    on the meet of its subset), so their folds take the first loop; an
    arbitrary relation's rows are mostly distinct, and never build the
    classes.
    """

    __slots__ = ("rows", "distinct", "__dict__")

    def __init__(self, rows):
        self.rows = rows
        self.distinct = len(set(rows))

    @memo
    def classes(self) -> tuple[tuple[int, int], ...]:
        """Each distinct row value with the mask of the codes holding it,
        in order of first occurrence; built on first use."""
        codes = {}
        for f, row in enumerate(self.rows):
            codes[row] = codes.get(row, 0) | 1 << f
        return tuple(codes.items())

    def fold(self, sel: int, out: int) -> int:
        if out and self.distinct < sel.bit_count():
            for row, codes in self.classes:
                if codes & sel:
                    out &= row
                    if not out:
                        break
            return out
        rows = self.rows
        while sel and out:
            low = sel & -sel
            out &= rows[low.bit_length() - 1]
            sel ^= low
        return out


def meeting_rows(keys_f, keys_g) -> list[int]:
    """The bit matrix of meeting keys: bit g of row f is set iff
    ``keys_f[f] & keys_g[g]`` is non-zero.

    The g are grouped by distinct key, and each distinct key of
    ``keys_f`` gets its row once: one OR per group that it meets.  A
    relation decided by comparing one value computed from F with one
    computed from G is this matrix of suitable keys, or its complement:
    x <= y in an order is bit y of the up-set of x, and x contained in y
    is x not meeting the complement of y.  ``keys_g`` is read once, so
    any iterable serves; ``keys_f`` is read twice.
    """
    groups: dict = {}
    get = groups.get
    bit = 1
    for key in keys_g:
        groups[key] = get(key, 0) | bit
        bit <<= 1
    groups = groups.items()
    row_of = {}
    for key in set(keys_f):
        row = 0
        for kg, gs in groups:
            if key & kg:
                row |= gs
        row_of[key] = row
    return list(map(row_of.__getitem__, keys_f))


def lower_closure_rows(n: int, rows) -> list[int]:
    """Rows of the lower closure of a relation whose 2**n rows are
    ``rows``: entry F is the union of rows[G] over all G contained in F.

    One zeta pass over the subset lattice of the row codes: element i
    ORs each row lacking i into the row with i added.
    """
    rows = list(rows)
    for i in range(n):
        bit = 1 << i
        for f in range(bit, len(rows)):
            if f & bit:
                rows[f] |= rows[f ^ bit]
    return rows


# -- family-level operators on raw masks ------------------------------------

def selections_mask(n: int, fam_mask: int) -> int:
    """Codes of all G meeting every member of the family (its transversals).

    G meets every member iff its complement contains none, that is, iff
    the complement of G lies outside the family's upper closure.  A
    family with more than ``loop_max`` members takes that whole-mask
    form (n shifts and one reversal, ``large_selections_mask``); a
    smaller one ANDs one ``meets`` mask per member.
    """
    t = tables(n)
    if fam_mask.bit_count() > t.loop_max:
        return large_selections_mask(n, fam_mask)
    out = t.full
    m = fam_mask
    while m and out:
        low = m & -m
        out &= t.meets[low.bit_length() - 1]
        m ^= low
    return out


def large_selections_mask(n: int, fam_mask: int) -> int:
    """``selections_mask`` by whole masks whatever the family's size:
    every code whose complement is not in the upper closure, taken by the
    steps of ``supersets_mask`` from the same table.  A family with the
    empty set as a member, such as a full row, selects nothing."""
    if fam_mask & 1:
        return 0
    t = tables(n)
    for lacks, step in t.up_steps:
        fam_mask |= (fam_mask & lacks) << step
    return t.full & ~complements_mask(n, fam_mask)


# entry b is the byte b with its eight bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def complements_mask(n: int, fam_mask: int) -> int:
    """The family of the complements of the members: code c becomes
    2**n - 1 - c, so the 2**n bits of the mask come in reverse order.

    At n >= 3 the mask is whole bytes: each byte is reversed by one
    ``translate`` and the byte order by reading the bytes big-endian.
    Below, one lookup reverses eight bits and a shift drops the padding.
    """
    if n < 3:
        return _REVERSED_BYTES[fam_mask] >> (8 - (1 << n))
    data = fam_mask.to_bytes(1 << (n - 3), "little").translate(_REVERSED_BYTES)
    return _from_bytes(data, "big")


def supersets_mask(n: int, fam_mask: int) -> int:
    """Upper closure: codes of all G containing a member of the family.

    n steps; step i adds element i to every code lacking it, which moves
    that code's bit up by 2**i.
    """
    for lacks, step in tables(n).up_steps:
        fam_mask |= (fam_mask & lacks) << step
    return fam_mask


def diagonal_masks(n: int, a_mask: int, b_mask: int) -> bool:
    return selections_mask(n, a_mask) & ~supersets_mask(n, b_mask) == 0


# -- public Family-level API -------------------------------------------------

def selections(fam: Family) -> Family:
    """All finite subsets meeting every member of ``fam``.

    The empty family selects everything; any family containing the empty
    subset selects nothing.
    """
    return Family(fam.ground, selections_mask(fam.ground.size, fam.mask))


def supersets(fam: Family) -> Family:
    """All finite subsets containing at least one member of ``fam``."""
    return Family(fam.ground, supersets_mask(fam.ground.size, fam.mask))


def diagonal(fam_a: Family, fam_b: Family) -> bool:
    """True iff every selection of ``fam_a`` contains a member of ``fam_b``."""
    _same_ground(fam_a, fam_b)
    return diagonal_masks(fam_a.ground.size, fam_a.mask, fam_b.mask)


def all_groundsets_named(n: int) -> GroundSet:
    """A convenience ground set a, b, c, ... used by tests and fixtures."""
    letters = "abcdefghijklmnop"
    if n > len(letters):
        names = tuple(f"e{i}" for i in range(n))
    else:
        names = tuple(letters[:n])
    return GroundSet(names)
