"""Cut-composition of relations.

The cut-composition of A (between F(R) and F(S)) and B (between F(S) and
F(T)) relates r to t when some pair of families over S, diagonal to each
other, is fully A-above r on one side and fully B-below t on the other.

The witness search has a closed form.  Enlarging the left family keeps
the A-side condition and only shrinks its selections; enlarging the
right family only grows its superset-closure.  So the maximal pair
A*(r) = {F : r A F} and B*(t) = {G : G B t} is optimal, and r relates
to t iff every selection of A*(r) contains a member of B*(t), that is,
iff every selection of A*(r) is related to t by the lower closure of B
(G related to t iff some subset of G is B-related to t).  For a lower B
the closure is B itself, and once B's structural scan has run
(``relations.lower_witness``) no closure is computed.  Each composed
row is then one fold of those rows over a selection family
(``kernel.RowFold``), which ANDs once per distinct row when there are
fewer of them than selections.  B keeps that fold
(``Relation.lower_fold``), so every composition with B on the right,
and B's derived relation when B is lower, share it.

Every right operand takes this one path; the literal enumeration of
witness families lives in the test oracles.
"""

from __future__ import annotations

from .kernel import GroundMismatchError, large_selections_mask, tables
from .relations import Relation


def _composed_rows(rel_a: Relation, rel_b: Relation):
    """Yield the rows of the cut-composition of rel_a and rel_b in order."""
    if rel_a.right != rel_b.left:
        raise GroundMismatchError("inner grounds do not match")
    fold = rel_b.lower_fold.fold
    full = (1 << rel_b.right.num_subsets) - 1
    n = rel_a.right.size
    t = tables(n)
    meets = t.meets
    loop_max = t.loop_max
    # a composed row depends only on its row of rel_a, so equal rows
    # (common in lower relations) are composed once
    done = {}
    for row_a in rel_a.rows:
        out = done.get(row_a)
        if out is None:
            # the row's selection family (``kernel.selections_mask``, with
            # its member loop inline for the small families)
            if row_a.bit_count() > loop_max:
                sel = large_selections_mask(n, row_a)
            else:
                sel = t.full
                m = row_a
                while m and sel:
                    low = m & -m
                    sel &= meets[low.bit_length() - 1]
                    m ^= low
            out = done[row_a] = fold(sel, full)
        yield out


def cut_compose(rel_a: Relation, rel_b: Relation) -> Relation:
    """Cut-composition of rel_a with any right operand rel_b."""
    # a list, not the generator: tuple() of a generator grows the tuple by
    # resizing, which raised peak memory over long runs (CPython 3.11)
    return Relation(rel_a.left, rel_b.right, list(_composed_rows(rel_a, rel_b)))


def composition_excess_witness(rel_a: Relation, rel_b: Relation, target: Relation):
    """First (r, t) in the composition but not in target, else None.

    Stops at the first composed row that exceeds its target row.
    """
    for r, (row, own) in enumerate(zip(_composed_rows(rel_a, rel_b), target.rows)):
        bad = row & ~own
        if bad:
            return r, (bad & -bad).bit_length() - 1
    return None

