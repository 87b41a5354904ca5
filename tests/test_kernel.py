import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit.kernel import (
    CapExceededError,
    Family,
    GroundMismatchError,
    GroundSet,
    all_groundsets_named,
    diagonal,
    iter_bits,
    meets_and_joins,
    minimal_members_mask,
    selections,
    selections_mask,
    supersets,
    wedge,
)

G2 = all_groundsets_named(2)
G3 = all_groundsets_named(3)


def fam(ground, *subsets):
    return ground.family([ground.subset(s) for s in subsets])


def members(family):
    return {s.names() for s in family.members()}


# -- selections ---------------------------------------------------------------

def test_selections_of_empty_family_is_everything():
    assert len(selections(fam(G2))) == 4


def test_selections_of_pair_set():
    got = members(selections(fam(G2, "ab")))
    assert got == {("a",), ("b",), ("a", "b")}


def test_selections_with_empty_member_is_empty():
    assert selections(fam(G2, "")).is_empty


# -- supersets ----------------------------------------------------------------

def test_supersets_of_empty_subset_is_everything():
    assert len(supersets(fam(G2, ""))) == 4


def test_supersets_of_singleton():
    assert members(supersets(fam(G2, "a"))) == {("a",), ("a", "b")}


def test_supersets_of_empty_family_is_empty():
    assert supersets(fam(G2)).is_empty


# -- wedge ---------------------------------------------------------------------

def test_wedge_single_union():
    assert members(wedge(fam(G2, "a"), fam(G2, "b"))) == {("a", "b")}


def test_wedge_identity_element():
    q = fam(G2, "a", "ab")
    assert wedge(q, fam(G2, "")) == q


def test_wedge_union_selection_duality():
    # selections of a union equal the wedge of the selections
    a, b = fam(G3, "a"), fam(G3, "b")
    lhs = selections(a.union(b))
    rhs = selections(a).intersection(selections(b))
    assert lhs == rhs
    assert wedge(selections(a), selections(b)) == rhs


def test_wedge_ground_mismatch():
    with pytest.raises(GroundMismatchError):
        wedge(fam(G2, "a"), fam(G3, "a"))


# -- diagonal -------------------------------------------------------------------

def test_diagonal_singleton_reflexive():
    assert diagonal(fam(G2, "a"), fam(G2, "a"))


def test_diagonal_pair_not_reflexive():
    # a two-element set fails against itself: a singleton selection need
    # not contain the pair
    assert not diagonal(fam(G2, "ab"), fam(G2, "ab"))


def test_diagonal_symmetric_exhaustive():
    n = G3.size
    size = 1 << (1 << n)
    # sampled grid over all family pairs
    fams = range(0, size, 7)
    for am in fams:
        fa = Family(G3, am)
        for bm in fams:
            fb = Family(G3, bm)
            assert diagonal(fa, fb) == diagonal(fb, fa)


# -- invariants (property style) -------------------------------------------------

family_masks2 = st.integers(min_value=0, max_value=(1 << 4) - 1)
family_masks3 = st.integers(min_value=0, max_value=(1 << 8) - 1)


@given(family_masks3)
def test_double_selection_is_supersets(mask):
    f = Family(G3, mask)
    assert selections(selections(f)) == supersets(f)


@given(family_masks3)
def test_selection_of_supersets_fixpoint(mask):
    f = Family(G3, mask)
    sel = selections(f)
    assert selections(supersets(f)) == sel
    assert supersets(sel) == sel


@given(family_masks3, family_masks3)
def test_selections_antitone(a, b):
    fa, fb = Family(G3, a), Family(G3, a | b)
    assert selections(fb).mask & ~selections(fa).mask == 0


@given(family_masks3, family_masks3)
def test_wedge_union_selection_laws(a, b):
    fa, fb = Family(G3, a), Family(G3, b)
    assert selections(wedge(fa, fb)) == selections(fa).union(selections(fb))
    assert selections(fa.union(fb)) == selections(fa).intersection(selections(fb))


@given(family_masks3, family_masks3, family_masks3)
@settings(max_examples=60)
def test_wedge_associative(a, b, c):
    fa, fb, fc = Family(G3, a), Family(G3, b), Family(G3, c)
    assert wedge(wedge(fa, fb), fc) == wedge(fa, wedge(fb, fc))


@given(family_masks3)
def test_minimal_member_prefilter_preserves_selections(mask):
    reduced = minimal_members_mask(3, mask)
    assert selections_mask(3, reduced) == selections_mask(3, mask)


# -- subset folds -----------------------------------------------------------------

@given(st.lists(st.integers(0, 255), max_size=6), st.integers(0, 255))
@settings(max_examples=120)
def test_meets_and_joins_match_literal_fold(masks, full):
    meets, joins = meets_and_joins(full, masks)
    assert len(meets) == len(joins) == 1 << len(masks)
    for code in range(1 << len(masks)):
        meet, join = full, 0
        for i in iter_bits(code):
            meet &= masks[i]
            join |= masks[i]
        assert (meets[code], joins[code]) == (meet, join)


# -- ground set hygiene -----------------------------------------------------------

def test_ground_labels_distinct():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


def test_ground_cap(monkeypatch):
    monkeypatch.setenv("COVERKIT_CAP", "3")
    with pytest.raises(CapExceededError):
        GroundSet(tuple(f"e{i}" for i in range(4)))


def test_subset_roundtrip():
    s = G3.subset("ac")
    assert s.names() == ("a", "c")
    assert "a" in s and "b" not in s
    assert len(s) == 2
