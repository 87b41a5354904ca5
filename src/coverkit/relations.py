"""Relations between finite-subset lattices, and cover systems.

A relation here always runs between F(S) and F(T) for ground sets S, T:
rows are indexed by left subset codes, and each row is a bitmask over
right subset codes.  Each relation also keeps, built on first use, its
packed matrix (all rows in one integer, ``kernel.pack_rows``), its
columns (the block-swap transpose of the packed matrix), its lower
closure (the zeta pass over its rows) and a ``kernel.RowFold`` of each
of the last two.  The upper, lower and cut rules are decided together,
in one structural pass over the elements on the whole packed matrix:
per element i, a few shifts of the matrix line each entry up with the
entry each rule compares it to (the upper and cut rules share one),
and one swap mask of ``kernel.matrix_plan`` (or its copy shifted by one
block) keeps the rows or columns the rule is about.  So the three rules
cost O(n) whole-integer operations, not O(n 2**n) row steps, each
witness is the first violation in row, element, column order, and the
pass runs once per relation, whichever rule is read first.

Values are immutable after construction.  Every value derived from a
relation or a cover system is a ``kernel.memo`` attribute of the object
it is derived from: computed on first read, kept on that object and
never on another, equal one.  Neither the ground nor the relation of a
system is ever reassigned, so no memo can go stale; threads racing on a
first read may each compute a value, and the first one stored wins.

For monotone relations the canonical extension to arbitrary subsets
(some finite part of one side relating to some finite part of the other)
agrees with the relation itself on finite subsets, so no separate
extended relation is exposed; the tightness machinery quantifies over
finite parts directly where the distinction would matter.
"""

from __future__ import annotations

from typing import Callable

from .kernel import (
    Family,
    FinSubset,
    GroundMismatchError,
    GroundSet,
    RowFold,
    iter_bits,
    lower_closure_rows,
    matrix_plan,
    memo,
    pack_rows,
    selections_mask,
    tables,
    transpose,
)


_set = object.__setattr__


class Relation:
    """A relation between F(left) and F(right) as a dense boolean matrix.

    ``rows[f]`` is the bitmask of right-hand codes g with f related to g.
    The packed matrix, the columns, the lower closure, the hash, the
    upper, lower and cut witnesses of the structural scan and the folds
    of the lower closure and of the columns are ``kernel.memo``
    attributes: derived from the rows on first use and kept in the
    relation's ``__dict__``.  Assigning any attribute raises.  A pickled
    or copied relation carries its rows, not its memos.
    """

    __slots__ = ("left", "right", "rows", "__dict__")

    def __init__(self, left: GroundSet, right: GroundSet, rows):
        rows = tuple(rows)
        if len(rows) != left.num_subsets:
            raise ValueError("row count must be 2**|left|")
        width = right.num_subsets
        if rows and (min(rows) < 0 or max(rows) >> width):
            raise ValueError("row mask out of range")
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("Relation is immutable")

    def __reduce__(self):
        return Relation, (self.left, self.right, self.rows)

    # -- construction helpers --

    @staticmethod
    def empty(left: GroundSet, right: GroundSet | None = None) -> "Relation":
        right = right or left
        return Relation(left, right, [0] * left.num_subsets)

    @staticmethod
    def full(left: GroundSet, right: GroundSet | None = None) -> "Relation":
        right = right or left
        m = (1 << right.num_subsets) - 1
        return Relation(left, right, [m] * left.num_subsets)

    @staticmethod
    def from_pairs(left: GroundSet, right: GroundSet, pairs) -> "Relation":
        """The relation holding on each (f, g) of ``pairs``; each side is
        anything ``GroundSet.code`` of its ground set takes."""
        rows = [0] * left.num_subsets
        left_code, right_code = left.code, right.code
        for f, g in pairs:
            rows[left_code(f)] |= 1 << right_code(g)
        return Relation(left, right, rows)

    @staticmethod
    def from_predicate(left: GroundSet, right: GroundSet,
                       pred: Callable[[int, int], bool]) -> "Relation":
        width = right.num_subsets
        rows = []
        for f in range(left.num_subsets):
            m = 0
            for g in range(width):
                if pred(f, g):
                    m |= 1 << g
            rows.append(m)
        return Relation(left, right, rows)

    # -- basic queries --

    @property
    def is_endo(self) -> bool:
        return self.left == self.right

    def holds(self, f, g) -> bool:
        """Whether f relates to g; each is anything ``GroundSet.code`` of
        its side's ground set takes, a subset code included."""
        return bool(self.rows[self.left.code(f)] >> self.right.code(g) & 1)

    def pairs(self):
        for f, row in enumerate(self.rows):
            for g in iter_bits(row):
                yield f, g

    @memo
    def packed(self) -> int:
        """The whole matrix as one integer (``kernel.pack_rows``): row f
        at bit f * 2**s, each row padded to 2**s bits.  Built once per
        relation; the transpose and the structural predicates read it."""
        return pack_rows(self.rows, self.left.size, self.right.size)

    def cols(self):
        """Column masks: cols()[g] is the bitmask over left codes f with f ~ g.

        Computed once per relation by ``kernel.transpose`` from the packed
        matrix (``packed``, shared with the structural predicates): one
        block swap per element of the larger side, for every shape.
        """
        return self._cols

    @memo
    def _cols(self):
        return transpose(self.packed, self.left.size, self.right.size)

    def lower_closure(self) -> tuple[int, ...]:
        """Rows of the lower closure: entry f is the union of the rows of
        all subsets of f (``kernel.lower_closure_rows``).  Computed once
        per relation; every composition with this relation on the right,
        and the tight sets of its system, read it.

        A lower relation is its own lower closure: its rows only grow
        with f (rows[g] is contained in rows[f] for every g contained in
        f), so the union over the subsets of f is rows[f].  When the
        structural scan (``lower_witness``, which ``classify`` runs) has
        already found the relation lower, the rows are returned and the
        zeta pass is skipped.
        """
        return self._below

    @memo
    def _structure(self):
        return _structural_scan(self)

    @memo
    def _below(self):
        # the rows, once the structural scan has found the relation lower
        scanned = vars(self).get("_structure")
        if scanned is not None and scanned[1] is None:
            return self.rows
        return tuple(lower_closure_rows(self.left.size, self.rows))

    @memo
    def lower_fold(self) -> RowFold:
        """The ``kernel.RowFold`` of the lower closure's rows: each
        composition with this relation on the right is one fold of it
        per composed row."""
        return RowFold(self.lower_closure())

    @memo
    def col_fold(self) -> RowFold:
        """The ``kernel.RowFold`` of the columns: the left codes related
        to every right code of a mask are one fold of it (the downsets
        of ``frame``)."""
        return RowFold(self.cols())

    def transpose(self) -> "Relation":
        return Relation(self.right, self.left, self.cols())

    def union(self, other: "Relation") -> "Relation":
        self._check_shape(other)
        return Relation(self.left, self.right,
                        [a | b for a, b in zip(self.rows, other.rows)])

    def intersection(self, other: "Relation") -> "Relation":
        self._check_shape(other)
        return Relation(self.left, self.right,
                        [a & b for a, b in zip(self.rows, other.rows)])

    def issubset(self, other: "Relation") -> bool:
        self._check_shape(other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def _check_shape(self, other: "Relation"):
        if self.left != other.left or self.right != other.right:
            raise GroundMismatchError("relations have different coordinate grounds")

    def __eq__(self, other):
        return (isinstance(other, Relation) and self.left == other.left
                and self.right == other.right and self.rows == other.rows)

    def __hash__(self):
        return self._hash

    @memo
    def _hash(self):
        return hash((self.left, self.right, self.rows))

    def __repr__(self):
        n = sum(bin(r).count("1") for r in self.rows)
        return f"Relation({self.left!r}->{self.right!r}, {n} pairs)"


# -- polar operators ---------------------------------------------------------

def _query_codes(rel: Relation, q) -> tuple[int, ...]:
    if isinstance(q, Family):
        if q.ground != rel.left:
            raise GroundMismatchError("query family over a different ground set")
        return q.member_codes()
    if isinstance(q, FinSubset):
        return (rel.left.code(q),)
    return tuple(q)


def polar_exists(rel: Relation, q) -> Family:
    """{t : some member of q is related to t} -- the union of the rows."""
    out = 0
    for c in _query_codes(rel, q):
        out |= rel.rows[c]
    return Family(rel.right, out)


def polar_forall(rel: Relation, q) -> Family:
    """{t : every member of q is related to t} -- the meet of the rows."""
    out = (1 << rel.right.num_subsets) - 1
    for c in _query_codes(rel, q):
        out &= rel.rows[c]
    return Family(rel.right, out)


# -- structural predicates ---------------------------------------------------

def is_upper(rel: Relation) -> bool:
    return upper_witness(rel) is None


def upper_witness(rel: Relation):
    """First (f, g, s) with f ~ g but not f ~ g+{s}, else None
    (``_structural_scan``)."""
    return rel._structure[0]


def is_lower(rel: Relation) -> bool:
    return lower_witness(rel) is None


def lower_witness(rel: Relation):
    """First (f, g, s) with f ~ g but not f+{s} ~ g, else None
    (``_structural_scan``).  ``Relation.lower_closure`` and ``row_fold``
    read the kept verdict without a scan."""
    return rel._structure[1]


def row_fold(rel: Relation) -> RowFold:
    """A ``kernel.RowFold`` of the relation's own rows.  A lower relation
    is its own lower closure, so it shares the fold the relation keeps
    (``Relation.lower_fold``); any other relation gets a new one."""
    return rel.lower_fold if lower_witness(rel) is None else RowFold(rel.rows)


def is_cut(rel: Relation) -> bool:
    return cut_witness(rel) is None


def cut_witness(rel: Relation):
    """First (F, G, s) violating the cut rule, else None: {s}+F ~ G and
    F ~ G+{s} both hold but F ~ G fails (``_structural_scan``)."""
    if not rel.is_endo:
        raise GroundMismatchError("cut rule applies to endorelations only")
    return rel._structure[2]


def _structural_scan(rel: Relation):
    """The upper, lower and cut witnesses of ``rel``, from one loop over
    the rounds of ``kernel.matrix_plan``; the cut witness is None unless
    the relation is an endorelation.

    Per element i, on the whole packed matrix M, each rule lines every
    entry up with the entry it is compared to:
      upper  M << 2**i moves (f, g) to (f, g | {i}) for every g lacking
             i, so the violations, marked at g | {i}, are
             (M << 2**i) & ~M on the columns with i;
      lower  M >> 2**(s+i) moves row f | {i} to row f, so the violations
             are M & ~(M >> 2**(s+i)) on the rows lacking i;
      cut    marked at (F, G | {i}) for the F and G lacking i (the swap
             mask of round i): M shifted down by the round's shift reads
             (F | {i}, G), M itself (F, G | {i}), and M << 2**i, shared
             with the upper rule, reads (F, G), which must fail.
    Each rule keeps its first violation in row, element, column order:
    elements come in ascending order, so a later one is first only in a
    lower row, and a violation in row 0 ends that rule's rounds.
    """
    n_left, n_right = rel.left.size, rel.right.size
    s, _, rounds, _ = matrix_plan(n_left, n_right)
    w = 1 << s
    m = rel.packed
    # each rule's first violation (packed position, element) so far, and
    # the rounds it still reads
    up = lo = cut = None
    up_end, lo_end = n_right, n_left
    cut_end = n_left if rel.is_endo else 0
    for i, (shift, swap) in enumerate(rounds):
        if i < up_end or i < cut_end:
            mi = m << (1 << i)
        if i < up_end:
            # a swap mask and its copy 2**i rows up: the columns with i
            y = mi & (swap | swap << (w << i))
            # y & ~m without a negative operand, so without a complemented
            # copy of the whole matrix, and built only when it is not 0: a
            # comparison allocates nothing (likewise below)
            z = y & m
            if z != y:
                bad = y ^ z
                pos = (bad & -bad).bit_length() - 1
                if up is None or pos >> s < up[0] >> s:
                    up = pos, i
                    if pos < w:
                        up_end = 0
        if i < lo_end:
            # a swap mask and its copy 2**i columns down: the rows lacking i
            y = m & (swap | swap >> (1 << i))
            z = y & (m >> (w << i))
            if z != y:
                bad = y ^ z
                pos = (bad & -bad).bit_length() - 1
                if lo is None or pos >> s < lo[0] >> s:
                    lo = pos, i
                    if pos < w:
                        lo_end = 0
        if i < cut_end:
            y = m & swap & (m >> shift)
            z = y & mi
            if z != y:
                bad = y ^ z
                pos = (bad & -bad).bit_length() - 1
                if cut is None or pos >> s < cut[0] >> s:
                    cut = pos, i
                    if pos < w:
                        cut_end = 0
    return (_cell(up, s, rel.right.names, 1), _cell(lo, s, rel.left.names, 0),
            _cell(cut, s, rel.left.names, 1))


def _cell(best, s: int, names, back: int):
    """(row, column, element label) of a violation (pos, i) at packed
    position pos, with bit i taken ``back`` off the column it was marked
    at; None for no violation."""
    if best is None:
        return None
    pos, i = best
    return pos >> s, (pos & ((1 << s) - 1)) ^ back << i, names[i]


def is_one_reflexive(rel: Relation) -> bool:
    return one_reflexive_witness(rel) is None


def one_reflexive_witness(rel: Relation):
    if not rel.is_endo:
        raise GroundMismatchError("1-reflexivity applies to endorelations only")
    for i in range(rel.left.size):
        c = 1 << i
        if not rel.rows[c] >> c & 1:
            return rel.left.names[i]
    return None


# -- derived relations -------------------------------------------------------

def one_exists(rel: Relation) -> Relation:
    """The strengthening relating f to G iff f relates to some singleton {g}."""
    nr = rel.right.size
    t = tables(nr)
    rows = []
    for row in rel.rows:
        out = 0
        for i in range(nr):
            if row >> (1 << i) & 1:
                out |= t.contains_elem[i]
        rows.append(out)
    return Relation(rel.left, rel.right, rows)


def between(rel: Relation, f, fam: Family) -> bool:
    """True iff f, anything ``GroundSet.code`` takes (a subset code
    included), relates to every selection of ``fam``."""
    if not rel.is_endo:
        raise GroundMismatchError("selection-extension applies to endorelations only")
    if fam.ground != rel.right:
        raise GroundMismatchError("family over a different ground set")
    f = rel.left.code(f)
    sel = selections_mask(rel.right.size, fam.mask)
    return rel.rows[f] & sel == sel


def star(rel: Relation, fam_a: Family, fam_b: Family) -> bool:
    """True iff each member F of fam_a has G in fam_b with F ~ {g} for all g in G."""
    if not rel.is_endo:
        raise GroundMismatchError("star extension applies to endorelations only")
    if fam_a.ground != rel.left or fam_b.ground != rel.left:
        raise GroundMismatchError("families over a different ground set")
    for f in iter_bits(fam_a.mask):
        row = rel.rows[f]
        ok = any(
            all(row >> (1 << i) & 1 for i in iter_bits(g))
            for g in iter_bits(fam_b.mask)
        )
        if not ok:
            return False
    return True


# -- cover systems -----------------------------------------------------------

class CoverSystem:
    """A ground set with an endorelation on its finite subsets.

    Construction only checks the shape.  What the system determines is
    a ``kernel.memo`` attribute, computed at most once per system by its
    module's builder: the classification with its witnesses
    (``classification``: ``axioms.classify``), the derived relation
    (``_vdash``: ``axioms.derive_vdash``), the frame model (``_frame``:
    ``frame.frame_model``) and the spectrum (``_spectrum``:
    ``spectrum.spectrum``).  Only two other fills exist,
    both by ``vars(sys).setdefault`` with the value the body would
    compute: the classification of a Scott relation keeps the relation
    as its derived relation, and ``Spectrum(sys)`` keeps its build on a
    system that has no spectrum.  A pickled or copied system carries its
    ground, relation and name, not its memos.
    """

    __slots__ = ("ground", "rel", "name", "__dict__")

    def __init__(self, ground: GroundSet, rel: Relation, name: str = ""):
        if rel.left != ground or rel.right != ground:
            raise GroundMismatchError("relation must be an endorelation on the ground")
        self.ground = ground
        self.rel = rel
        self.name = name

    def __reduce__(self):
        return CoverSystem, (self.ground, self.rel, self.name)

    @memo
    def classification(self):
        """The classification with its witnesses, which ``axioms.classify``
        reads: one object per system, which must not be mutated."""
        return axioms._compute_classification(self)

    @memo
    def _vdash(self):
        return axioms._compute_vdash(self)

    @memo
    def _frame(self):
        from . import frame

        return frame._build_frame_model(self)

    @memo
    def _spectrum(self):
        from . import spectrum

        return spectrum.Spectrum(self)

    def holds(self, f, g) -> bool:
        return self.rel.holds(f, g)

    def __eq__(self, other):
        return (isinstance(other, CoverSystem) and self.ground == other.ground
                and self.rel == other.rel)

    def __hash__(self):
        return hash((self.ground, self.rel))

    def __repr__(self):
        label = self.name or "system"
        return f"CoverSystem({label}, |S|={self.ground.size})"


# imported last, as it imports this module; ``import coverkit`` loads it
# anyway, while frame and spectrum (and logging) load on first use
from . import axioms  # noqa: E402
