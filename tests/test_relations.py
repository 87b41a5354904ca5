import pytest

import gen
import oracles
from coverkit.kernel import Family, GroundMismatchError, GroundSet, iter_bits
from coverkit.relations import (
    CoverSystem,
    Relation,
    between,
    cut_witness,
    is_cut,
    is_lower,
    is_one_reflexive,
    is_upper,
    lower_witness,
    one_exists,
    polar_exists,
    polar_forall,
    star,
    upper_witness,
)
from coverkit.builders import boolean4_lattice, lattice_cover, meet_system

G2 = gen.ground(2)
G3 = gen.ground(3)
RNG = gen.rng_for(101)


# -- polar operators ----------------------------------------------------------

def test_polar_of_empty_query():
    rel = gen.random_relation(RNG, G2)
    assert polar_exists(rel, Family(G2, 0)).mask == 0
    assert len(polar_forall(rel, Family(G2, 0))) == 4


def test_polars_agree_on_singletons():
    for _ in range(20):
        rel = gen.random_relation(RNG, G2)
        for code in range(4):
            q = Family(G2, 1 << code)
            assert polar_exists(rel, q) == polar_forall(rel, q)


def test_polar_exists_is_union_of_rows():
    rel = gen.random_relation(RNG, G2)
    whole = Family(G2, (1 << 4) - 1)
    expect = 0
    for r in rel.rows:
        expect |= r
    assert polar_exists(rel, whole).mask == expect


def test_polar_forall_antitone():
    for _ in range(30):
        rel = gen.random_relation(RNG, G3)
        a = RNG.randrange(1 << 8)
        b = a | RNG.randrange(1 << 8)
        small = polar_forall(rel, Family(G3, a))
        big = polar_forall(rel, Family(G3, b))
        assert big.mask & ~small.mask == 0


# -- structural flags -----------------------------------------------------------

def test_full_relation_flags_all_true():
    full = Relation.full(G2)
    assert is_upper(full) and is_lower(full) and is_cut(full) and is_one_reflexive(full)


def test_monotone_with_empty_pair_is_full():
    # the only monotone relation relating empty to empty is the full one
    for _ in range(200):
        rel = gen.random_monotone(RNG, G2)
        if rel.holds(0, 0):
            assert rel == Relation.full(G2)


def test_meet_relation_flags():
    sysm = meet_system(3)
    rel = sysm.rel
    assert is_upper(rel) and is_lower(rel) and is_one_reflexive(rel) and is_cut(rel)


def test_one_reflexive_iff_contains_meet():
    meet = meet_system(3).rel
    for _ in range(60):
        rel = gen.random_monotone(RNG, G3)
        assert is_one_reflexive(rel) == meet.issubset(rel)


def test_upper_matches_inclusion_composition():
    # upper holds exactly when relating to G implies relating to every
    # superset of G, checked by a literal scan
    for _ in range(40):
        rel = gen.random_relation(RNG, G2)
        literal = all(
            rel.holds(f, h)
            for f in range(4)
            for g in iter_bits(rel.rows[f])
            for h in range(4)
            if g & h == g
        )
        assert is_upper(rel) == literal


def test_monotone_one_reflexive_almost_reflexive():
    for _ in range(40):
        rel = gen.random_monotone(RNG, G3)
        if is_one_reflexive(rel):
            assert all(rel.holds(f, f) for f in range(1, 8))


# -- one_exists -------------------------------------------------------------------

def test_one_exists_strengthens_upper():
    for _ in range(40):
        rel = gen.random_monotone(RNG, G3)
        assert one_exists(rel).issubset(rel)


def test_one_exists_empty_target_row():
    rel = gen.random_relation(RNG, G3)
    assert all(not one_exists(rel).holds(f, 0) for f in range(8))


def test_one_exists_matches_definition_scan():
    rel = gen.random_relation(RNG, G2)
    got = one_exists(rel)
    for f in range(4):
        for g in range(4):
            want = any(rel.holds(f, 1 << s) for s in iter_bits(g))
            assert got.holds(f, g) == want


def test_one_exists_idempotent():
    for _ in range(30):
        rel = gen.random_relation(RNG, G3)
        once = one_exists(rel)
        assert one_exists(once) == once


# -- between and star ----------------------------------------------------------------

def test_between_empty_family_requires_everything():
    rel = gen.random_relation(RNG, G2)
    full_row = (1 << 4) - 1
    for f in range(4):
        assert between(rel, f, Family(G2, 0)) == (rel.rows[f] == full_row)


def test_between_single_member_scan():
    rel = gen.random_relation(RNG, G2)
    g0 = G2.subset("a")
    famm = Family(G2, 1 << g0.bits)
    for f in range(4):
        want = all(rel.holds(f, h) for h in range(4) if h & g0.bits)
        assert between(rel, f, famm) == want


def test_between_with_empty_member_vacuous():
    rel = Relation.empty(G2)
    assert between(rel, 0, Family(G2, 1))  # family containing the empty set


def test_star_empty_left_vacuous():
    rel = gen.random_relation(RNG, G2)
    assert star(rel, Family(G2, 0), Family(G2, 3))


def test_star_implies_forall_between_for_upper():
    for _ in range(60):
        rel = gen.random_monotone(RNG, G3)
        a = Family(G3, RNG.randrange(1 << 8))
        b = Family(G3, RNG.randrange(1 << 8))
        if star(rel, a, b):
            assert all(between(rel, f, b) for f in iter_bits(a.mask))


def test_exists_extension_selection_equality():
    # for an elementwise relation, requiring an existential hit on every
    # selection of a family equals fully relating to some member
    from coverkit.kernel import selections_mask

    m = 3
    for _ in range(30):
        related = RNG.randrange(1 << m)  # elements related to a fixed r
        for fam_mask in range(0, 1 << (1 << m), 13):
            sel = selections_mask(m, fam_mask)
            exists_side = all(g & related for g in iter_bits(sel))
            forall_side = any(g & ~related == 0 for g in iter_bits(fam_mask))
            assert exists_side == forall_side


# -- CoverSystem --------------------------------------------------------------------

def test_cover_system_requires_endorelation():
    rel = Relation.empty(G2, G3)
    with pytest.raises(GroundMismatchError):
        CoverSystem(G2, rel)


def test_int_code_out_of_range_raises_naming_the_range():
    # a code past the ground's subsets, or negative, is refused on either
    # side by the same ValueError, never read as a missing pair
    g2 = GroundSet.of("a", "b")
    rel = Relation.full(g2)
    for f, g in ((0, 99), (7, 0), (0, -1), (-1, 0)):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            rel.holds(f, g)
    for f in (4, -1):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            between(rel, f, Family(g2, 0))
    assert rel.holds(0, 3) and between(rel, 3, Family(g2, 0))


def test_subset_over_a_foreign_ground_raises():
    # each subset argument is checked against its own side's ground set,
    # whether the ground sizes match, the code fits or it does not
    g2, g3 = GroundSet.of("a", "b"), GroundSet.of("x", "y", "z")
    xy, y, z = g3.subset(["x", "y"]), g3.subset(["y"]), g3.subset(["z"])
    a = g2.subset(["a"])
    rel = Relation.full(g2)
    for f, g in ((xy, y), (z, z), (a, y), (xy, a)):
        with pytest.raises(GroundMismatchError):
            Relation.from_pairs(g2, g2, [(f, g)])
        with pytest.raises(GroundMismatchError):
            rel.holds(f, g)
    for f in (xy, z):
        with pytest.raises(GroundMismatchError):
            between(rel, f, Family(g2, 0))
        with pytest.raises(GroundMismatchError):
            g2.subset(f)
    sys = CoverSystem(g2, rel)
    from coverkit.spectrum import is_round, tight_flags

    for use in (is_round, tight_flags):
        with pytest.raises(GroundMismatchError):
            use(sys, xy)
    # subsets over the right ground still work, as do codes and labels
    assert Relation.from_pairs(g2, g3, [(a, z)]).holds(["a"], 4)
    assert rel.holds(a, 0) and between(rel, ["a"], Family(g2, 0))


def test_classification_cache_coherent():
    from coverkit.axioms import classify

    for _ in range(20):
        sys = CoverSystem(G2, gen.random_relation(RNG, G2))
        assert sys.classification.to_dict() == classify(sys).to_dict()


# -- structural witnesses against the literal scans ------------------------------------

def _named(names, wit):
    return None if wit is None else (wit[0], wit[1], names[wit[2]])


def _check_witnesses(rel):
    # the one structural pass gives the literal scans' witnesses, the
    # naive verdicts and exactly the witnesses of the three separate
    # scans it replaced
    left, right = rel.left, rel.right
    up, lo = upper_witness(rel), lower_witness(rel)
    assert up == _named(right.names, oracles.naive_upper_witness(right.size, rel.rows))
    assert lo == _named(left.names, oracles.naive_lower_witness(left.size, rel.rows))
    assert (up, lo) == (oracles.scan_upper_witness(rel), oracles.scan_lower_witness(rel))
    if rel.is_endo:
        n = left.size
        cut = cut_witness(rel)
        assert cut == _named(left.names, oracles.naive_cut_witness(n, rel.rows))
        assert cut == oracles.scan_cut_witness(rel)
        assert (up is None, lo is None, cut is None) == (
            oracles.naive_upper(n, rel.rows), oracles.naive_lower(n, rel.rows),
            oracles.naive_cut(n, rel.rows))


def test_structural_witnesses_match_naive_exhaustive():
    # every relation at |S| = 2: the witness, not only the flag, must agree
    for code in range(1 << 16):
        _check_witnesses(Relation(G2, G2, [code >> (4 * f) & 15 for f in range(4)]))


def _sparse_rows(rng, n_left, n_right):
    codes = range(1 << n_right)
    return [sum(1 << g for g in rng.sample(codes, min(len(codes), rng.randrange(3))))
            for _ in range(1 << n_left)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structural_witnesses_match_naive_random(n):
    rng = gen.rng_for(707 + n)
    ground = gen.ground(n)
    for k in range(60 if n < 5 else 24):
        kind = k % 3
        if kind == 0:
            rel = gen.random_relation(rng, ground)
        elif kind == 1:
            rel = Relation(ground, ground, _sparse_rows(rng, n, n))
        else:
            rel = gen.random_monotone(rng, ground)
            assert upper_witness(rel) is None and lower_witness(rel) is None
        _check_witnesses(rel)


@pytest.mark.parametrize("n_left,n_right",
                         [(1, 3), (3, 1), (2, 5), (5, 2), (0, 2), (2, 0),
                          (3, 4), (4, 3), (4, 5), (5, 4)])
def test_upper_and_lower_witnesses_on_other_shapes(n_left, n_right):
    rng = gen.rng_for(808 + 7 * n_left + n_right)
    left = GroundSet(tuple(f"l{i}" for i in range(n_left)))
    right = GroundSet(tuple(f"r{i}" for i in range(n_right)))
    width = 1 << (1 << n_right)
    for k in range(40):
        if k % 2:
            rows = [rng.randrange(width) for _ in range(left.num_subsets)]
        else:
            rows = _sparse_rows(rng, n_left, n_right)
        _check_witnesses(Relation(left, right, rows))
    _check_witnesses(Relation.full(left, right))
    _check_witnesses(Relation.empty(left, right))


def test_cut_witness_needs_an_endorelation():
    with pytest.raises(GroundMismatchError):
        cut_witness(Relation.empty(G2, G3))


# -- one lower closure per relation ----------------------------------------------------

def test_lower_closure_computed_once_per_system(monkeypatch):
    # classify (two compositions with sys.rel on the right), a further
    # self-composition and the tight sets of the spectrum all read the
    # one lower closure kept on the relation: one zeta pass for a relation
    # that is not lower, none for a lower one that classify has scanned
    from coverkit import relations
    from coverkit.axioms import classify
    from coverkit.composition import cut_compose
    from coverkit.spectrum import spectrum

    closed = []
    inner = relations.lower_closure_rows

    def counted(n, rows):
        closed.append(tuple(rows))
        return inner(n, rows)

    monkeypatch.setattr(relations, "lower_closure_rows", counted)
    rng = gen.rng_for(5)
    rel = gen.random_relation(rng, G3)
    while lower_witness(rel) is None:
        rel = gen.random_relation(rng, G3)
    for sys in (CoverSystem(G3, rel), lattice_cover(boolean4_lattice())):
        closed.clear()
        classify(sys)
        cut_compose(sys.rel, sys.rel)
        spectrum(sys)
        want = [] if sys.rel.lower_closure() == sys.rel.rows else [sys.rel.rows]
        assert closed == want
    assert classify(sys).is_strong_idempotent and sys.rel.lower_closure() is sys.rel.rows


def test_lower_closure_of_a_lower_relation_is_its_rows():
    # the rows are returned only once the lower scan has found the
    # relation lower; before, and for a relation that is not lower, the
    # zeta pass runs, and the two agree on every relation at |S| = 2
    for code in range(1 << 16):
        rows = tuple(code >> (4 * f) & 15 for f in range(4))
        literal = tuple(rows[0] | rows[f] | rows[f & 1] | rows[f & 2] for f in range(4))
        assert Relation(G2, G2, rows).lower_closure() == literal
        rel = Relation(G2, G2, rows)
        lower = lower_witness(rel) is None
        assert rel.lower_closure() == literal
        assert (rel.lower_closure() is rel.rows) == lower


def test_import_coverkit_loads_only_the_core():
    # ``import coverkit`` loads kernel, relations, composition and axioms;
    # frame, spectrum, builders, category, the CLI, logging and array load
    # on first use, so the start-up of every caller stays small
    import os
    import subprocess
    import sys
    from pathlib import Path

    import coverkit

    src = str(Path(coverkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    lazy = ["coverkit.frame", "coverkit.spectrum", "coverkit.builders",
            "coverkit.category", "coverkit.cli", "logging", "array"]
    code = f"import sys, coverkit; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"
