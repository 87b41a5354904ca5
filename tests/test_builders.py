import pytest

import gen
from oracles import (
    naive_convexity_entailment,
    naive_join,
    naive_lattice_cover,
    naive_meet,
    naive_perp_cover,
    naive_proximity_cover,
    naive_semilattice_cover,
    naive_tight_sets,
)
from coverkit.kernel import iter_bits
from coverkit.relations import Relation, is_cut, is_one_reflexive
from coverkit.builders import (
    Convexity,
    FiniteLattice,
    ProximityLattice,
    TransitiveRelation,
    boolean4_lattice,
    canonical_small_systems,
    chain_lattice,
    convexity_entailment,
    extra_fixture_systems,
    is_distributive_semilattice,
    lattice_cover,
    m3_lattice,
    meet_system,
    perp_cover,
    proximity_cover,
    scott_cover_conditions,
    scott_cover_construct,
    semilattice_cover,
    sierpinski_space,
    topology_cover,
)
from coverkit.spectrum import compact_contained, tight_codes

RNG = gen.rng_for(404)


# -- lattice cover -----------------------------------------------------------

def test_boolean4_meet_below_join():
    sys = lattice_cover(boolean4_lattice())
    g = sys.ground
    assert sys.holds(g.subset(["a", "b"]), g.subset(["0"]))
    assert not sys.holds(g.subset(["a"]), g.subset(["0"]))


def test_lattice_cover_almost_reflexive():
    sys = lattice_cover(m3_lattice())
    for f in range(1, sys.ground.num_subsets):
        assert sys.holds(f, f)


def test_m3_fails_cut():
    cls = lattice_cover(m3_lattice()).classification
    assert cls.is_monotone and cls.is_one_reflexive and not cls.is_cut


def test_lattice_cut_iff_distributive_small():
    for k in range(1, 5):
        for lat in gen.all_lattices(k):
            sys = lattice_cover(lat)
            assert is_cut(sys.rel) == lat.is_distributive()


N5 = FiniteLattice.from_pairs(
    ["0", "a", "b", "c", "1"],
    [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])


def test_lattice_cover_matches_literal_scan():
    rng = gen.rng_for(707)
    lats = [FiniteLattice((), ()), m3_lattice(), N5, boolean4_lattice()]
    lats += [chain_lattice(k) for k in range(1, 7)]
    lats += [gen.random_lattice(rng, 6) for _ in range(60)]
    assert len({(lat.size, lat.leq) for lat in lats}) > 30
    for lat in lats:
        assert list(lattice_cover(lat).rel.rows) == naive_lattice_cover(lat.size, lat.leq)


def test_non_lattice_rejected():
    with pytest.raises(ValueError):
        FiniteLattice.from_pairs(("a", "b"), [])  # two incomparable tops


def test_cyclic_pairs_rejected_naming_the_cycle():
    # a <= b <= c <= a closes to an order in which a and b lie below each other
    with pytest.raises(ValueError, match="not a partial order: a and b lie below each other"):
        FiniteLattice.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(ValueError, match="not a partial order: x is not below itself"):
        FiniteLattice(("x",), (0,))
    with pytest.raises(ValueError, match="not a partial order: p <= q is not transitive"):
        FiniteLattice(("p", "q", "r"), (0b011, 0b110, 0b100))
    with pytest.raises(ValueError, match="not a partial order: a and b lie below each other"):
        FiniteLattice.from_semilattice_pairs(("a", "b"), [("a", "b"), ("b", "a")])


def _first_missing(names, table, what):
    """The error naming the first pair without an entry, row by row."""
    for i, row in enumerate(table):
        for j, b in enumerate(row):
            if b is None:
                return f"no {what} for {names[i]},{names[j]}"
    return None


def test_bound_tables_match_literal_scan_on_every_small_poset():
    # every labelled partial order on at most five elements: the lattice
    # (semilattice, from its pairs) builds iff every pair has a meet and a
    # join (a join, and there is a minimum), its tables are the greatest
    # lower and least upper bounds found by scanning, and a rejection
    # names the first pair without one
    built = 0
    for k in range(6):
        names = tuple(f"v{i}" for i in range(k))
        for leq in gen.all_posets(k):
            meets = [[naive_meet(k, leq, (i, j)) for j in range(k)] for i in range(k)]
            joins = [[naive_join(k, leq, (i, j)) for j in range(k)] for i in range(k)]
            error = _first_missing(names, meets, "meet") or _first_missing(names, joins, "join")
            assert (error is None) == gen.poset_is_lattice(leq)
            try:
                lat = FiniteLattice(names, leq)
            except ValueError as exc:
                assert str(exc) == error
            else:
                assert error is None
                assert (lat.meet_table, lat.join_table) == (meets, joins)
                built += 1
            has_min = naive_meet(k, leq, range(k)) is not None
            error = (_first_missing(names, joins, "join") if has_min
                     else "semilattice must have a minimum")
            pairs = [(names[i], names[j]) for i in range(k) for j in iter_bits(leq[i])]
            try:
                sl = FiniteLattice.from_semilattice_pairs(names, pairs)
            except ValueError as exc:
                assert str(exc) == error
            else:
                assert error is None and (sl.leq, sl.join_table) == (leq, joins)
                assert sl.meet_table == meets
    assert built > 100


# -- semilattice cover ---------------------------------------------------------

def test_semilattice_singleton_reduction():
    lat = boolean4_lattice()
    sys = semilattice_cover(lat)
    g = sys.ground
    for f in range(lat.size):
        for gmask in range(g.num_subsets):
            join = naive_join(lat.size, lat.leq, list(iter_bits(gmask)))
            assert sys.holds(1 << f, gmask) == bool(lat.leq[f] >> join & 1)


def test_semilattice_cover_always_scott():
    for k in range(1, 5):
        for lat in gen.all_lattices(k):
            sys = semilattice_cover(lat)
            assert sys.classification.is_scott


def test_order_covers_match_literal_scans_on_every_small_lattice():
    # the semilattice, lattice and order-proximity covers of every labelled
    # lattice on at most five elements, against their pair-by-pair scans
    count = 0
    for k in range(1, 6):
        for lat in gen.all_lattices(k):
            assert list(semilattice_cover(lat).rel.rows) == naive_semilattice_cover(k, lat.leq)
            assert list(lattice_cover(lat).rel.rows) == naive_lattice_cover(k, lat.leq)
            prox = ProximityLattice(lat.elements, lat.leq)
            assert list(proximity_cover(prox).rel.rows) == naive_proximity_cover(
                k, lat.leq, lat.leq)
            count += 1
    assert count == 1 + 2 + 6 + 36 + 380


def test_semilattice_distributive_reduction_agrees():
    b4 = boolean4_lattice()
    assert is_distributive_semilattice(b4)
    assert semilattice_cover(b4).rel == lattice_cover(b4).rel


def test_m3_semilattice_not_distributive():
    assert not is_distributive_semilattice(m3_lattice())


# -- orthogonality cover ----------------------------------------------------------

def _random_transitive(rng, k):
    pairs = []
    names = tuple(f"t{i}" for i in range(k))
    for i in range(k):
        for j in range(k):
            if rng.random() < 0.35:
                pairs.append((names[i], names[j]))
    return TransitiveRelation.from_pairs(names, pairs, transitive_close=True)


def test_perp_cover_rounded_gives_scott():
    for _ in range(40):
        tr = _random_transitive(RNG, RNG.choice([2, 3, 4]))
        sys = perp_cover(tr)
        assert sys.classification.is_entailment
        if tr.rounded:
            assert sys.classification.is_scott


def test_perp_cover_matches_literal_scan_on_every_small_poset():
    # the strict part of every labelled partial order on at most five
    # elements, and up to four the order itself (reflexive, so every
    # element is a predecessor of itself)
    for k in range(6):
        names = tuple(f"t{i}" for i in range(k))
        for leq in gen.all_posets(k):
            strict = tuple(row & ~(1 << i) for i, row in enumerate(leq))
            for lt in (strict, leq)[:1 if k == 5 else 2]:
                tr = TransitiveRelation(names, lt)
                assert list(perp_cover(tr).rel.rows) == naive_perp_cover(k, lt)


def test_perp_cover_two_point_fixture():
    tr = TransitiveRelation.from_pairs(("p", "q"), [("p", "p"), ("p", "q")])
    sys = perp_cover(tr)
    # nothing is orthogonal to anything (p is below both), so the cover
    # relates F to G unless F has a common predecessor while G is empty
    g = sys.ground
    assert sys.holds(g.subset(["p"]), g.subset(["q"]))
    assert not sys.holds(g.subset(["p"]), g.subset([]))
    assert sys.holds(g.subset([]), g.subset(["p"]))


def test_perp_cover_matches_alexandroff_closure_cover():
    # over a rounded transitive relation, the cover coincides with the
    # closure-density relation of the down-set topology on predecessors
    for _ in range(25):
        tr = _random_transitive(RNG, 3)
        if not tr.rounded:
            continue
        k = tr.size
        full = (1 << k) - 1
        downsets = [m for m in range(1 << k) if all(
            tr.below[x] | 0 == tr.below[x] and
            all(tr.lt[y] >> x & 1 or True for y in range(k)) for x in range(k))]
        # opens of the Alexandroff topology: sets closed under predecessors
        opens = [m for m in range(1 << k)
                 if all(tr.below[x] & ~m == 0 for x in iter_bits(m))]

        def closure(region):
            out = 0
            for x in range(k):
                nbhd = (1 << x) | tr.below[x]
                if nbhd & region:
                    out |= 1 << x
            return out

        sys = perp_cover(tr)
        size = sys.ground.num_subsets
        for f in range(size):
            inter = full
            for i in iter_bits(f):
                inter &= tr.below[i]
            for gmask in range(size):
                union = 0
                for i in iter_bits(gmask):
                    union |= tr.below[i]
                dense = inter & ~closure(union) == 0
                assert sys.holds(f, gmask) == dense


# -- layered construction -----------------------------------------------------------

def test_layered_with_full_relation():
    base = meet_system(2)
    lt = TransitiveRelation(base.ground.names, ((1 << 2) - 1,) * 2)
    sys = scott_cover_construct(base, lt)
    # a total refinement makes the composite relate F to G whenever the
    # base relates F to anything and G is non-empty
    for f in range(4):
        any_base = base.rel.rows[f] != 0
        for gmask in range(4):
            expect = any_base and (gmask != 0 or base.rel.holds(f, 0))
            if gmask == 0:
                expect = base.rel.holds(f, 0) and False  # no g above anything
            assert sys.holds(f, gmask) == expect


def test_layered_ordered_set_is_cover():
    # a dense rounded transitive relation yields a cover via the layered
    # construction over its orthogonality base
    for _ in range(30):
        k = RNG.choice([2, 3])
        names = tuple(f"t{i}" for i in range(k))
        pairs = [(names[i], names[i]) for i in range(k)]
        for i in range(k):
            for j in range(k):
                if RNG.random() < 0.4:
                    pairs.append((names[i], names[j]))
        tr = TransitiveRelation.from_pairs(names, pairs, transitive_close=True)
        base = perp_cover(tr)
        conds = scott_cover_conditions(base, tr)
        sys = scott_cover_construct(base, tr)
        assert conds["one_aux"] and conds["interpolation"] and conds["succ"]
        assert sys.classification.is_cover


def test_layered_predomain_is_cover():
    lat = boolean4_lattice()
    base = semilattice_cover(lat)
    lt = TransitiveRelation(lat.elements, lat.leq)
    conds = scott_cover_conditions(base, lt)
    assert all(conds.values())
    sys = scott_cover_construct(base, lt)
    assert sys.classification.is_cover


# -- proximity lattices ---------------------------------------------------------------

def _leq_proximity(lat: FiniteLattice) -> ProximityLattice:
    return ProximityLattice(lat.elements, lat.leq)


def test_proximity_reduces_to_lattice_cover():
    for lat in (boolean4_lattice(), chain_lattice(3)):
        assert proximity_cover(_leq_proximity(lat)).rel == lattice_cover(lat).rel


def test_finite_proximities_degenerate_to_their_order():
    # exhaustively at four elements, every valid proximity relation equals
    # its derived order (finite interpolation collapses strictness)
    n = 3
    for bits in range(1 << (n * n)):
        rows = tuple((bits >> (n * i)) & ((1 << n) - 1) for i in range(n))
        if not any(r == (1 << n) - 1 for r in rows):
            continue
        try:
            pl = ProximityLattice(tuple("xyz"[:n]), rows)
        except ValueError:
            continue
        assert pl.prox == pl.derived_leq


def _rounded_proximal_filters(pl: ProximityLattice):
    lat = pl.lattice
    k = pl.size
    out = []
    for t in range(1, 1 << k):
        members = list(iter_bits(t))
        rounded = all(pl.below[x] & t for x in members)
        upclosed = all(
            t >> y & 1 for x in members for y in range(k) if lat.leq[x] >> y & 1
        )
        directed = all(
            t >> lat.meet_table[a][b] & 1 for a in members for b in members
        )
        proximal = True
        for x in members:
            for fmask in range(1 << k):
                join = naive_join(k, lat.leq, list(iter_bits(fmask)))
                if not lat.leq[x] >> join & 1:
                    continue
                for gmask in range(1 << k):
                    below_g = 0
                    for gg in iter_bits(gmask):
                        below_g |= pl.below[gg]
                    if fmask & ~below_g == 0 and not t & gmask:
                        proximal = False
                        break
                if not proximal:
                    break
            if not proximal:
                break
        if rounded and upclosed and directed and proximal:
            out.append(t)
    return out


def test_proximity_tight_sets_are_rounded_proximal_filters():
    for lat in (boolean4_lattice(), chain_lattice(3), m3_lattice()):
        pl = _leq_proximity(lat)
        sys = proximity_cover(pl)
        assert list(tight_codes(sys)) == _rounded_proximal_filters(pl)


def test_interpolative_proximity_tight_sets_are_prime_filters():
    # with join interpolation (automatic for the order proximity of a
    # distributive lattice) tight sets are the rounded prime filters
    for lat in (boolean4_lattice(), chain_lattice(3)):
        pl = _leq_proximity(lat)
        sys = proximity_cover(pl)
        k = pl.size
        prime_filters = []
        for t in range(1, 1 << k):
            members = list(iter_bits(t))
            rounded = all(pl.below[x] & t for x in members)
            upclosed = all(
                t >> y & 1 for x in members for y in range(k) if lat.leq[x] >> y & 1
            )
            directed = all(
                t >> lat.meet_table[a][b] & 1 for a in members for b in members
            )
            prime = True
            for fmask in range(1 << k):
                join = naive_join(k, lat.leq, list(iter_bits(fmask)))
                if t >> join & 1 and not t & fmask:
                    prime = False
                    break
            if rounded and upclosed and directed and prime:
                prime_filters.append(t)
        assert list(tight_codes(sys)) == prime_filters


def test_invalid_proximity_rejected():
    with pytest.raises(ValueError):
        ProximityLattice(("x", "y"), (0b11, 0b00))  # not idempotent at y


# -- convexity spaces ---------------------------------------------------------------

def test_discrete_convexity_is_meet_relation():
    elements = ("a", "b")
    cx = Convexity(elements, tuple(range(4)))
    assert convexity_entailment(cx).rel == meet_system(2).rel


def _all_convexities(k):
    full = (1 << k) - 1
    out = []
    middles = [m for m in range(1, full)]
    for pick in range(1 << len(middles)):
        fam = {0, full}
        for i in iter_bits(pick):
            fam.add(middles[i])
        ok = all(a & b in fam for a in fam for b in fam)
        if ok:
            out.append(Convexity(tuple("abcd"[:k]), tuple(sorted(fam))))
    return out


def test_kakutani_iff_cut_exhaustive():
    counts = {}
    for k in (2, 3, 4):
        convexities = _all_convexities(k)
        counts[k] = len(convexities)
        for cx in convexities:
            sys = convexity_entailment(cx)
            assert list(sys.rel.rows) == naive_convexity_entailment(k, cx.convex_sets)
            assert is_cut(sys.rel) == cx.kakutani
            assert sys.rel == sys.rel.transpose()  # symmetric
            assert is_one_reflexive(sys.rel)
    # closure systems on 2, 3 and 4 points
    assert counts == {2: 4, 3: 45, 4: 2271}


def test_convexity_entailment_matches_literal_scan_on_random_convexities():
    rng = gen.rng_for(505)
    for _ in range(400):
        k = rng.choice([5, 6])
        fam = {0, (1 << k) - 1} | {rng.randrange(1 << k) for _ in range(rng.randrange(6))}
        more = {a & b for a in fam for b in fam} - fam
        while more:
            fam |= more
            more = {a & b for a in fam for b in fam} - fam
        cx = Convexity(tuple(f"p{i}" for i in range(k)), tuple(sorted(fam)))
        assert list(convexity_entailment(cx).rel.rows) == naive_convexity_entailment(
            k, cx.convex_sets)


def test_non_kakutani_fixture_fails_cut():
    # segment convexity on a 3-cycle-free line with a gap: {a,c} convex
    # hull forces b yet no half-space separates
    cx = min(
        (c for c in _all_convexities(3) if not c.kakutani),
        key=lambda c: c.convex_sets,
    )
    sys = convexity_entailment(cx)
    assert not is_cut(sys.rel)


# -- topology cover -------------------------------------------------------------------

def test_compact_containment_is_subset_on_finite_spaces():
    for _ in range(30):
        space = RNG.choice(gen.all_t0_spaces(3))
        for o in space.opens:
            for nn in space.opens:
                assert compact_contained(space, o, nn) == (o & ~nn == 0)


def test_sierpinski_cover():
    sys = topology_cover(sierpinski_space())
    assert sys.classification.is_cover


def test_topology_cover_always_cover():
    for space in gen.all_t0_spaces(3):
        for sub in gen.subbasis_choices(space):
            assert topology_cover(sub).classification.is_cover


def test_non_generating_subbasis_rejected():
    space = sierpinski_space()
    with pytest.raises(ValueError):
        topology_cover(space, subbasis=[space.full_mask])


# -- canonical corpus ------------------------------------------------------------------

def test_canonical_classifications():
    for name, sys, expected in canonical_small_systems():
        assert sys.classification.to_dict() == expected, name


def test_extra_fixture_classifications():
    for name, sys, expected in extra_fixture_systems():
        assert sys.classification.to_dict() == expected, name


def test_meet_system_tight_sets_are_all_nonempty_subsets():
    sys = meet_system(3)
    assert list(tight_codes(sys)) == naive_tight_sets(3, sys.rel.rows)
    assert len(tight_codes(sys)) == 7
