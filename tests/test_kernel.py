import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit.kernel import (
    CapExceededError,
    RowFold,
    Family,
    GroundMismatchError,
    GroundSet,
    MAX_GROUND,
    all_groundsets_named,
    complements_mask,
    diagonal,
    iter_bits,
    joins_of,
    large_selections_mask,
    lower_closure_rows,
    meeting_rows,
    meets_of,
    pack_rows,
    selections,
    selections_mask,
    supersets,
    supersets_mask,
    tables,
    transpose,
)
from coverkit.relations import Relation
from gen import rng_for
from oracles import naive_selections, naive_supersets, upsets, wedge

G2 = all_groundsets_named(2)
G3 = all_groundsets_named(3)


def fam(ground, *subsets):
    mask = 0
    for s in subsets:
        mask |= 1 << ground.code(s)
    return Family(ground, mask)


def members(family):
    return {s.names() for s in family.members()}


# -- selections ---------------------------------------------------------------

def test_selections_of_empty_family_is_everything():
    assert len(selections(fam(G2))) == 4


def test_selections_of_pair_set():
    got = members(selections(fam(G2, "ab")))
    assert got == {("a",), ("b",), ("a", "b")}


def test_selections_with_empty_member_is_empty():
    assert selections(fam(G2, "")).mask == 0


@pytest.mark.parametrize("n", range(9))
def test_selections_mask_matches_naive_on_both_sides_of_the_size_switch(n):
    # a family with more than loop_max members takes the whole-mask form;
    # the sizes straddle that switch, each side also gets random sizes,
    # and the whole-mask form is checked on its own at every size
    rng = rng_for(4100 + n)
    size = 1 << n
    switch = min(tables(n).loop_max, size)
    counts = {0, 1, size} | {k for k in (switch - 1, switch, switch + 1) if 0 <= k <= size}
    counts |= {rng.randint(0, switch), rng.randint(switch, size)}
    for count in sorted(counts):
        for _ in range(6):
            members = rng.sample(range(size), count)
            mask = sum(1 << f for f in members)
            want = sum(1 << g for g in naive_selections(n, members))
            assert selections_mask(n, mask) == want, (n, members)
            assert large_selections_mask(n, mask) == want, (n, members)


@pytest.mark.parametrize("n", range(9))
def test_complements_mask_complements_every_member(n):
    rng = rng_for(4200 + n)
    size = 1 << n
    for mask in (0, (1 << size) - 1, 1, 1 << (size - 1), rng.getrandbits(size)):
        want = sum(1 << (size - 1 - c) for c in iter_bits(mask))
        assert complements_mask(n, mask) == want


# -- supersets ----------------------------------------------------------------

def test_supersets_of_empty_subset_is_everything():
    assert len(supersets(fam(G2, ""))) == 4


def test_supersets_of_singleton():
    assert members(supersets(fam(G2, "a"))) == {("a",), ("a", "b")}


def test_supersets_of_empty_family_is_empty():
    assert supersets(fam(G2)).mask == 0


# -- wedge ---------------------------------------------------------------------

def test_wedge_single_union():
    assert members(wedge(fam(G2, "a"), fam(G2, "b"))) == {("a", "b")}


def test_wedge_identity_element():
    q = fam(G2, "a", "ab")
    assert wedge(q, fam(G2, "")) == q


def test_wedge_union_selection_duality():
    # selections of a union equal the wedge of the selections
    a, b = fam(G3, "a"), fam(G3, "b")
    lhs = selections(Family(G3, a.mask | b.mask))
    rhs = Family(G3, selections(a).mask & selections(b).mask)
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
    sa, sb = selections(fa).mask, selections(fb).mask
    assert selections(wedge(fa, fb)).mask == sa | sb
    assert selections(Family(G3, a | b)).mask == sa & sb


@given(family_masks3, family_masks3, family_masks3)
@settings(max_examples=60)
def test_wedge_associative(a, b, c):
    fa, fb, fc = Family(G3, a), Family(G3, b), Family(G3, c)
    assert wedge(wedge(fa, fb), fc) == wedge(fa, wedge(fb, fc))


@given(family_masks3)
def test_minimal_member_prefilter_preserves_selections(mask):
    # a transversal of the minimal members meets every superset of one
    reduced = literal_minimal_members(mask)
    assert selections_mask(3, reduced) == selections_mask(3, mask)


# -- subset folds -----------------------------------------------------------------

@given(st.lists(st.integers(0, 255), max_size=6), st.integers(0, 255))
@settings(max_examples=120)
def test_meets_and_joins_match_literal_fold(masks, full):
    meets, joins = meets_of(full, masks), joins_of(masks)
    assert len(meets) == len(joins) == 1 << len(masks)
    for code in range(1 << len(masks)):
        meet, join = full, 0
        for i in iter_bits(code):
            meet &= masks[i]
            join |= masks[i]
        assert (meets[code], joins[code]) == (meet, join)


# -- whole-mask primitives against literal scans -------------------------------------

@st.composite
def bit_matrices(draw):
    n_left = draw(st.integers(0, 6))
    n_right = draw(st.integers(0, 6))
    width = 1 << (1 << n_right)
    rows = draw(st.lists(st.integers(0, width - 1), min_size=1 << n_left,
                         max_size=1 << n_left))
    return n_left, n_right, rows


@given(bit_matrices())
@settings(max_examples=150)
def test_transpose_matches_per_bit_transpose(matrix):
    n_left, n_right, rows = matrix
    literal = tuple(
        sum(1 << f for f, row in enumerate(rows) if row >> g & 1)
        for g in range(1 << n_right)
    )
    assert transpose(pack_rows(rows, n_left, n_right), n_left, n_right) == literal


@pytest.mark.parametrize("n_left", range(5))
@pytest.mark.parametrize("n_right", range(5))
def test_pack_and_transpose_match_per_row_reference(n_left, n_right):
    # one-byte rows (both sides at most 3) move as bytes, wider ones row
    # by row: both against the per-row packing, and transposing twice
    # gives the rows back
    rng = rng_for(911 + 5 * n_left + n_right)
    s = max(n_left, n_right, 3)
    width = 1 << (1 << n_right)
    for _ in range(25):
        rows = [rng.randrange(width) for _ in range(1 << n_left)]
        packed = pack_rows(rows, n_left, n_right)
        assert packed == sum(row << (f << s) for f, row in enumerate(rows))
        cols = transpose(packed, n_left, n_right)
        assert cols == tuple(sum(1 << f for f, row in enumerate(rows) if row >> g & 1)
                             for g in range(1 << n_right))
        assert transpose(pack_rows(cols, n_right, n_left), n_right, n_left) == tuple(rows)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_transpose_of_full_and_diagonal(n):
    size = 1 << n
    full = (1 << size) - 1
    assert transpose(pack_rows([full] * size, n, n), n, n) == (full,) * size
    diagonal = [1 << f for f in range(size)]
    assert transpose(pack_rows(diagonal, n, n), n, n) == tuple(diagonal)


def literal_minimal_members(mask):
    members = list(iter_bits(mask))
    return sum(1 << f for f in members
               if not any(g != f and g & f == g for g in members))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_supersets_and_minimal_members_exhaustive(n):
    for mask in range(1 << (1 << n)):
        members = list(iter_bits(mask))
        assert supersets_mask(n, mask) == sum(1 << g for g in naive_supersets(n, members))


@pytest.mark.parametrize("n, count", [(0, 2), (1, 3), (2, 6), (3, 20), (4, 168)])
def test_upsets_are_the_selection_families(n, count):
    ups = upsets(n)
    assert len(ups) == count and list(ups) == sorted(set(ups))
    assert set(ups) == {selections_mask(n, mask) for mask in range(1 << (1 << n))}
    for up in ups:
        assert supersets_mask(n, up) == up


@given(st.integers(4, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
@settings(max_examples=120)
def test_supersets_and_minimal_members_random(case):
    n, mask = case
    members = list(iter_bits(mask))
    assert supersets_mask(n, mask) == sum(1 << g for g in naive_supersets(n, members))


@given(st.integers(0, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 255), min_size=1 << n,
                                             max_size=1 << n))))
@settings(max_examples=120)
def test_lower_closure_rows_match_literal_scan(case):
    n, rows = case
    literal = []
    for f in range(1 << n):
        out = 0
        for g in range(1 << n):
            if g & f == g:
                out |= rows[g]
        literal.append(out)
    assert lower_closure_rows(n, rows) == literal


# -- one fold of selected rows ----------------------------------------------------

def _literal_fold(rows, sel, out):
    for x in iter_bits(sel):
        out &= rows[x]
    return out


def test_row_fold_equals_bit_by_bit_fold():
    # rows with one value, a few, and all distinct; both loops are taken
    rng = rng_for(77)
    taken = set()
    for n in (0, 1, 2, 3, 5, 8):
        size = 1 << n
        width = 1 << rng.randrange(1, 9)
        few = [rng.randrange(width) for _ in range(3)]
        for rows in ([rng.randrange(width)] * size,
                     [rng.choice(few) for _ in range(size)],
                     rng.sample(range(max(width, size)), size)):
            fold = RowFold(tuple(rows))
            assert fold.distinct == len(set(rows))
            loops = set()
            for _ in range(40):
                sel = rng.randrange(1 << size)
                out = rng.choice([0, (1 << width) - 1, rng.randrange(1 << width)])
                assert fold.fold(sel, out) == _literal_fold(rows, sel, out)
                loops.add(fold.distinct < sel.bit_count())
            assert fold.fold(0, 5) == 5 and fold.fold((1 << size) - 1, 0) == 0
            # the classes are built only once a call takes their loop
            assert ("classes" in vars(fold)) == (True in loops)
            taken |= loops
            if "classes" in vars(fold):
                assert {row for row, _ in fold.classes} == set(rows)
                covered = 0
                for row, codes in fold.classes:
                    assert all(rows[x] == row for x in iter_bits(codes))
                    covered |= codes
                assert covered == (1 << size) - 1
    assert taken == {True, False}


# -- one tabulation of meeting keys -------------------------------------------------

keys = st.lists(st.integers(0, 63) | st.sampled_from([0, 1, 2, 3, 2 ** 70, 2 ** 70 + 1]),
                max_size=20)


@given(keys, keys)
@settings(max_examples=300)
def test_meeting_rows_match_literal_double_loop(keys_f, keys_g):
    # repeated keys, zero keys, keys wider than a machine word and empty
    # lists among the draws
    literal = [sum(1 << g for g, kg in enumerate(keys_g) if kf & kg) for kf in keys_f]
    assert meeting_rows(keys_f, keys_g) == literal


# -- ground set hygiene -----------------------------------------------------------

def test_ground_labels_distinct():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))


def test_ground_cap():
    ground = GroundSet(tuple(f"e{i}" for i in range(MAX_GROUND)))
    with pytest.raises(CapExceededError, match=f"size {MAX_GROUND + 1} exceeds cap {MAX_GROUND}"):
        GroundSet(tuple(f"e{i}" for i in range(MAX_GROUND + 1)))
    # the largest relation, 2**13 x 2**13 bits, still builds
    other = GroundSet(tuple(f"f{i}" for i in range(MAX_GROUND)))
    rel = Relation(ground, other, [0] * (1 << MAX_GROUND))
    assert len(rel.rows) == ground.num_subsets == other.num_subsets == 1 << MAX_GROUND


def test_subset_roundtrip():
    s = G3.subset("ac")
    assert s.names() == ("a", "c")
    assert "a" in s and "b" not in s
    assert len(s) == 2
