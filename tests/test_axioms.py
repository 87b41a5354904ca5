import gen
import oracles
from oracles import naive_classify, naive_vdash
from coverkit import relations
from coverkit.kernel import iter_bits
from coverkit.relations import (
    CoverSystem,
    Relation,
    is_cut,
    is_lower,
    is_one_reflexive,
    is_upper,
    one_exists,
)
from coverkit import axioms, composition
from coverkit.composition import cut_compose
from coverkit.axioms import (
    antisymmetry_witness,
    classify,
    cut_transitive_witness,
    derive_vdash,
    divisibility_witness,
    is_auxiliary,
    is_cut_transitive,
    is_divisible,
    is_semicut,
    semicut_witness,
)
from coverkit.spectrum import Spectrum, verify_representation
from coverkit.builders import (
    boolean4_lattice,
    chain_lattice,
    corpus,
    diagonal_system,
    lattice_cover,
    meet_system,
    sierpinski_space,
    topology_cover,
)

G2 = gen.ground(2)
G3 = gen.ground(3)
RNG = gen.rng_for(303)

# found by exhaustive scan over two-element relations: monotone, fails the
# cut rule, and self-composition strictly exceeds it at (empty, {a})
CUT_TRANSITIVITY_REGRESSION = (8, 10, 10, 10)


# -- derived relation -----------------------------------------------------------

def test_vdash_equals_relation_for_scott():
    for name, sys, expected in corpus():
        if expected["is_scott"]:
            assert derive_vdash(sys) == sys.rel


def test_vdash_empty_premise_row():
    for _ in range(30):
        sys = CoverSystem(G2, gen.random_relation(RNG, G2))
        vd = derive_vdash(sys)
        # the empty set is derived-related to G exactly when every H is
        # plainly related to G
        expect = (1 << 4) - 1
        for row in sys.rel.rows:
            expect &= row
        assert vd.rows[0] == expect


def test_cut_transitive_implies_contained_in_vdash():
    for _ in range(80):
        rel = gen.random_monotone(RNG, G3)
        sys = CoverSystem(G3, rel)
        if is_cut_transitive(sys):
            assert rel.issubset(derive_vdash(sys))


def test_vdash_always_lower_and_one_reflexive():
    for _ in range(60):
        sys = CoverSystem(G2, gen.random_relation(RNG, G2))
        vd = derive_vdash(sys)
        assert is_lower(vd)
        assert is_one_reflexive(vd)
        if is_upper(sys.rel):
            assert is_upper(vd)


def test_vdash_upper_absorption():
    # composing the singleton strengthening with the derived relation
    # never exceeds the relation itself
    for _ in range(60):
        sys = CoverSystem(G2, gen.random_relation(RNG, G2))
        vd = derive_vdash(sys)
        composed = cut_compose(one_exists(sys.rel), vd)
        assert composed.issubset(sys.rel)


def test_vdash_scott_and_absorbed_for_strong_idempotents():
    count = 0
    for _ in range(200):
        sys = gen.random_strong_idempotent(RNG, gen.ground(RNG.choice([2, 3])))
        vd_sys = CoverSystem(sys.ground, derive_vdash(sys))
        assert vd_sys.classification.is_scott
        assert cut_compose(sys.rel, vd_sys.rel) == sys.rel
        count += 1
    assert count == 200


def test_strong_idempotent_sampler_on_the_empty_ground():
    # the sampler's anchored branch needs an element; at |S| = 0 it is skipped
    for seed in range(40):
        sys = gen.random_strong_idempotent(gen.rng_for(seed), gen.ground(0))
        assert sys.classification.is_strong_idempotent


def test_vdash_matches_naive():
    for _ in range(60):
        rel = gen.random_relation(RNG, G2)
        sys = CoverSystem(G2, rel)
        assert list(derive_vdash(sys).rows) == naive_vdash(2, rel.rows)


# -- auxiliarity ------------------------------------------------------------------

def test_everything_auxiliary_to_empty_relation():
    for _ in range(20):
        rel_a = gen.random_relation(RNG, G2)
        assert is_auxiliary(rel_a, Relation.empty(G2))


def test_upper_cut_relation_self_auxiliary():
    # the cut rule extends to finite premises, hence self-auxiliarity
    for _ in range(200):
        rel = gen.random_relation(RNG, G2)
        if is_upper(rel) and is_cut(rel):
            assert is_auxiliary(rel, rel)


def test_auxiliarity_composition_roundtrip():
    # for a 1-reflexive lower relation, absorption under composition and
    # auxiliarity coincide on lower relations
    for _ in range(150):
        base = gen.random_scott(RNG, G2).rel
        rel = gen.random_monotone(RNG, G2)
        composed_ok = cut_compose(base, rel).issubset(rel)
        assert composed_ok == is_auxiliary(rel, base)


# -- semicut ------------------------------------------------------------------------

def test_lower_cut_relation_is_semicut():
    for _ in range(300):
        rel = gen.random_relation(RNG, G2)
        if is_lower(rel) and is_cut(rel):
            assert is_semicut(CoverSystem(G2, rel))


def test_full_relation_semicut():
    assert is_semicut(CoverSystem(G2, Relation.full(G2)))


def test_divisible_upper_semicut_iff_cut_transitive():
    hit = 0
    for _ in range(400):
        rel = gen.upper_closure(gen.random_relation(RNG, G2))
        sys = CoverSystem(G2, rel)
        if is_divisible(sys):
            assert is_semicut(sys) == is_cut_transitive(sys)
            hit += 1
    assert hit > 20


def test_semicut_witness_matches_naive_exhaustive():
    # every relation at |S| = 2; the witness, not only the flag, must agree
    for code in range(1 << 16):
        rows = [(code >> (4 * f)) & 15 for f in range(4)]
        sys = CoverSystem(G2, Relation(G2, G2, rows))
        assert semicut_witness(sys) == oracles.naive_semicut_witness(2, rows), rows


def test_semicut_witness_matches_naive_random():
    rng = gen.rng_for(404)
    makers = (
        gen.random_relation,
        gen.random_monotone,
        lambda r, g: gen.upper_closure(gen.random_monotone(r, g)),
        lambda r, g: gen.random_scott(r, g).rel,
    )
    seen = set()
    for k in range(320):
        ground = G3 if k % 2 else gen.ground(4)
        rel = makers[k // 2 % 4](rng, ground)
        wit = semicut_witness(CoverSystem(ground, rel))
        assert wit == oracles.naive_semicut_witness(ground.size, rel.rows)
        seen.add(None if wit is None else wit[1] > 0)
    assert seen == {None, False, True}


def test_semicut_witness_matches_naive_at_five():
    # at |S| = 5 the H disjoint from G range over up to 32 codes
    rng = gen.rng_for(405)
    ground = gen.ground(5)
    seen = set()
    for density in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4):
        rel = gen.random_monotone(rng, ground, density)
        wit = semicut_witness(CoverSystem(ground, rel))
        assert wit == oracles.naive_semicut_witness(5, rel.rows)
        seen.add(wit is None)
    assert seen == {True, False}


def _check_minimal_member_semicut(sys, naive=True):
    # the walk over the members of hs with no member one element smaller
    # (its minimal members when the relation is lower) against the table
    # walk and, where it is in reach, the literal search
    n, rows = sys.ground.size, sys.rel.rows
    wit = semicut_witness(sys)
    assert wit == oracles.table_semicut_witness(n, rows), rows
    if naive:
        assert wit == oracles.naive_semicut_witness(n, rows), rows
    return wit


def test_minimal_member_semicut_exhaustive_on_lower_relations():
    # the 6**4 lower relations at |S| = 2, each column an up-set, where
    # the members tested are the minimal ones
    seen = set()
    for rel in _all_relations(G2):
        if relations.lower_witness(rel) is None:
            wit = _check_minimal_member_semicut(CoverSystem(G2, rel))
            seen.add(None if wit is None else wit[2])
    assert len(seen) > 3 and None in seen


def _m3_topped_by_chain(k):
    from coverkit.builders import FiniteLattice

    els = ("0", "x", "y", "z", "1") + tuple(f"t{i}" for i in range(1, k + 1))
    pairs = [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")]
    pairs += list(zip(els[4:], els[5:]))
    return FiniteLattice.from_pairs(els, pairs)


def test_minimal_member_semicut_random_relations():
    # lattice covers, lower closures of random relations and strong
    # idempotents at |S| = 3-6; the literal search where it is in reach
    from coverkit.kernel import lower_closure_rows

    rng = gen.rng_for(406)
    systems = [lattice_cover(chain_lattice(k)) for k in (3, 4, 5, 6)]
    systems += [lattice_cover(_m3_topped_by_chain(k)) for k in (0, 1)]
    while len(systems) < 30:
        lat = gen.random_lattice(rng, 6)
        if lat.size >= 3:
            systems.append(lattice_cover(lat))
    for k in range(120):
        ground = gen.ground(3 + k % 4)
        rows = gen.random_relation(rng, ground).rows
        if k % 3:  # sparser rows leave room for a violation
            rows = [r & gen.random_relation(rng, ground).rows[f] for f, r in enumerate(rows)]
        rows = lower_closure_rows(ground.size, rows)
        systems.append(CoverSystem(ground, Relation(ground, ground, rows)))
    for k in range(40):
        systems.append(gen.random_strong_idempotent(rng, gen.ground(3 + k % 3)))
    assert all(relations.lower_witness(sys.rel) is None for sys in systems)
    # and relations that are not lower, sparse ones among them
    for k in range(60):
        ground = gen.ground(3 + k % 4)
        rel = gen.random_relation(rng, ground)
        if k % 2:
            rel = rel.intersection(gen.random_relation(rng, ground)).intersection(
                gen.random_relation(rng, ground))
        systems.append(CoverSystem(ground, rel))
    seen = set()
    for sys in systems:
        wit = _check_minimal_member_semicut(sys, naive=sys.ground.size <= 5)
        seen.add(None if wit is None else bin(wit[2]).count("1"))
    # an H of any size can be first (the empty one only when the relation
    # is not lower: a lower relation whose empty set entails G has a full
    # column G)
    assert None in seen and {0, 1, 2, 3} <= seen


def test_m3_topped_by_chain_semicut_at_scale():
    # |S| = 10: the witness comes early, and the table walk agrees
    sys = lattice_cover(_m3_topped_by_chain(5))
    assert sys.ground.size == 10
    wit = _check_minimal_member_semicut(sys, naive=False)
    assert wit is not None


# -- cut-transitivity -----------------------------------------------------------------

def test_entailments_cut_transitive():
    for _ in range(300):
        rel = gen.random_monotone(RNG, G2)
        if is_cut(rel):
            assert is_cut_transitive(CoverSystem(G2, rel))


def test_empty_relation_cut_transitive():
    assert is_cut_transitive(CoverSystem(G3, Relation.empty(G3)))


def test_cut_transitivity_regression_fixture():
    rel = Relation(G2, G2, CUT_TRANSITIVITY_REGRESSION)
    assert is_upper(rel) and is_lower(rel) and not is_cut(rel)
    sys = CoverSystem(G2, rel)
    assert cut_transitive_witness(sys) == (0, 1)


def test_one_reflexive_monotone_cut_iff_cut_transitive():
    for _ in range(300):
        rel = gen.random_monotone(RNG, G2)
        if is_one_reflexive(rel):
            assert is_cut(rel) == is_cut_transitive(CoverSystem(G2, rel))


# -- divisibility ----------------------------------------------------------------------

def test_monotone_one_reflexive_divisible():
    for _ in range(150):
        rel = gen.random_monotone(RNG, G3)
        if is_one_reflexive(rel):
            assert is_divisible(CoverSystem(G3, rel))
    # monotone or not: every 1-reflexive relation at |S| = 2, and random
    # ones at |S| = 3 made 1-reflexive
    reflexive = [rel for rel in _all_relations(G2) if is_one_reflexive(rel)]
    assert len(reflexive) == 1 << 14
    for _ in range(150):
        rows = list(gen.random_relation(RNG, G3).rows)
        for s in range(3):
            rows[1 << s] |= 1 << (1 << s)
        reflexive.append(Relation(G3, G3, rows))
    for rel in reflexive:
        assert is_divisible(CoverSystem(rel.left, rel)), rel.rows


def test_empty_relation_divisible():
    assert is_divisible(CoverSystem(G3, Relation.empty(G3)))


def test_divisibility_matches_interpolation_form():
    # divisibility restated: relating to all selections of a family always
    # interpolates through a family of fully singleton-entailed subsets
    from coverkit.kernel import Family
    from coverkit.relations import between, star

    for _ in range(40):
        rel = gen.random_monotone(RNG, G2)
        sys = CoverSystem(G2, rel)
        interp = True
        for f in range(4):
            for fam_mask in range(1 << 4):
                if not between(rel, f, Family(G2, fam_mask)):
                    continue
                ok = any(
                    between(rel, f, Family(G2, mid))
                    and star(rel, Family(G2, mid), Family(G2, fam_mask))
                    for mid in range(1 << 4)
                )
                if not ok:
                    interp = False
                    break
            if not interp:
                break
        assert interp == is_divisible(sys)


# -- cover relations -------------------------------------------------------------------

def test_scott_relations_are_covers():
    for _ in range(100):
        sys = gen.random_scott(RNG, G2)
        assert sys.classification.is_cover


def test_diagonal_relation_not_cover():
    sys = diagonal_system(2)
    cls = sys.classification
    assert cls.is_entailment and not cls.is_one_reflexive and not cls.is_cover


def test_cover_iff_divisible_entailment_auxiliary():
    for _ in range(120):
        rel = gen.random_monotone(RNG, G2)
        sys = CoverSystem(G2, rel)
        cls = sys.classification
        alt = (cls.is_divisible and cls.is_entailment
               and is_auxiliary(rel, derive_vdash(sys)))
        assert cls.is_cover == alt


def test_classify_examples():
    assert lattice_cover(boolean4_lattice()).classification.is_scott
    assert topology_cover(sierpinski_space()).classification.is_cover
    full = CoverSystem(G2, Relation.full(G2)).classification
    assert full.is_cover and not full.is_antisymmetric


def test_classify_matches_naive_spot():
    for _ in range(150):
        rel = gen.random_relation(RNG, G2)
        assert classify(CoverSystem(G2, rel)).to_dict() == naive_classify(2, rel.rows)


def test_classify_witnesses_name_based():
    from coverkit.builders import m3_lattice

    cls = classify(lattice_cover(m3_lattice()), with_witnesses=True)
    assert not cls.is_cut
    wit = cls.witnesses["cut"]
    assert set(wit) == {"F", "G", "s"}


def _non_lower_s4(rng, kind):
    g4 = gen.ground(4)
    if kind == 0:
        return gen.random_relation(rng, g4)
    if kind == 1:
        return gen.upper_closure(gen.random_relation(rng, g4))
    # a Scott relation with the row of one non-singleton subset cleared
    rows = list(gen.random_scott(rng, g4).rel.rows)
    rows[rng.choice([c for c in range(16) if bin(c).count("1") > 1])] = 0
    return Relation(g4, g4, rows)


def test_classify_non_lower_at_four_elements():
    # a four-element non-lower system classifies (it used to raise
    # CapExceededError): flags agree with the naive scans, the
    # composition-based flags with the maximal-witness oracle, and the
    # hierarchy implications hold
    rng = gen.rng_for(404)
    seen = set()
    for k in range(24):
        rel = _non_lower_s4(rng, k % 3)
        rows = list(rel.rows)
        assert not oracles.naive_lower(4, rows)
        f = classify(CoverSystem(rel.left, rel), with_witnesses=True).to_dict()
        ct = oracles._contained(oracles.naive_compose_maximal(4, rows, rows), rows)
        div = oracles._contained(
            rows, oracles.naive_compose_maximal(4, rows, oracles.naive_one_exists(4, rows)))
        assert f["is_upper"] == oracles.naive_upper(4, rows)
        assert f["is_lower"] is False
        assert f["is_cut"] == oracles.naive_cut(4, rows)
        assert f["is_one_reflexive"] == oracles.naive_one_reflexive(4, rows)
        assert f["is_semicut"] == oracles.naive_semicut(4, rows)
        assert f["is_antisymmetric"] == oracles.naive_antisymmetric(4, rows)
        assert f["is_cut_transitive"] == ct
        assert f["is_divisible"] == div
        assert f["is_monotone"] == (f["is_upper"] and f["is_lower"])
        assert f["is_entailment"] == (f["is_monotone"] and f["is_cut"])
        assert f["is_scott"] == (f["is_entailment"] and f["is_one_reflexive"])
        assert f["is_strong_idempotent"] == (
            f["is_monotone"] and f["is_divisible"] and f["is_cut_transitive"])
        assert f["is_strong_idempotent"] or not f["is_cover"]
        seen.add((f["is_cut_transitive"], f["is_divisible"]))
    assert {(True, True), (False, True), (False, False)} <= seen


# -- classify's closed forms against the composition-based references ------------------

def _all_relations(ground):
    size = ground.num_subsets
    for code in range(1 << (size * size)):
        yield Relation(ground, ground, [code >> (size * f) & ((1 << size) - 1)
                                        for f in range(size)])


def test_one_exists_lower_closure_closed_form():
    def check(rel):
        assert axioms._one_exists_lower_closure(rel) == list(
            one_exists(rel).lower_closure()), rel.rows

    for n in (0, 1, 2):
        for rel in _all_relations(gen.ground(n)):
            check(rel)
    rng = gen.rng_for(909)
    for n in (3, 4, 5):
        ground = gen.ground(n)
        for _ in range(30):
            check(gen.random_relation(rng, ground))
            check(gen.random_monotone(rng, ground))


def _check_against_references(sys):
    rel = sys.rel
    expected = (oracles.composition_cut_transitive_witness(rel),
                oracles.composition_divisibility_witness(rel))
    assert axioms._self_composition_witnesses(rel) == expected, rel.rows
    assert antisymmetry_witness(sys) == oracles.vdash_antisymmetry_witness(
        sys, derive_vdash(sys)), rel.rows
    return expected


def test_fused_witnesses_match_references_exhaustive():
    seen = set()
    for rel in _all_relations(G2):
        ct, div = _check_against_references(CoverSystem(G2, rel))
        seen.add((ct is None, div is None))
    assert len(seen) == 4


def test_fused_witnesses_match_references_random():
    rng = gen.rng_for(910)
    samplers = (
        lambda g: CoverSystem(g, gen.random_relation(rng, g)),
        lambda g: CoverSystem(g, gen.random_monotone(rng, g)),
        lambda g: gen.random_scott(rng, g),
        lambda g: gen.random_strong_idempotent(rng, g),
    )
    for n in (3, 4):
        ground = gen.ground(n)
        for sample in samplers:
            for _ in range(60):
                sys = sample(ground)
                ct, div = _check_against_references(sys)
                assert cut_transitive_witness(sys) == ct
                assert divisibility_witness(sys) == div


def test_fused_witnesses_match_references_named():
    for sys in (meet_system(3), lattice_cover(boolean4_lattice()),
                lattice_cover(chain_lattice(4))):
        _check_against_references(sys)


# -- hierarchy implications that classify reads off the structural flags ---------------

def _rule_closure(n, rows, upper):
    """The least relation containing ``rows`` that is lower and has the
    cut rule (and is upper, with ``upper``): each rule applied to every
    pair, again until nothing is added."""
    rows = list(rows)
    size = 1 << n
    grown = True
    while grown:
        grown = False
        for f in range(size):
            for s in range(n):
                bit = 1 << s
                if f & bit:
                    continue
                add = rows[f] & ~rows[f | bit]  # F |- G gives F+{s} |- G
                for g in range(size):
                    if (not g & bit and rows[f | bit] >> g & 1
                            and rows[f] >> (g | bit) & 1):
                        add_f = 1 << g  # cut on s
                        if not rows[f] & add_f:
                            rows[f] |= add_f
                            grown = True
                    if upper and rows[f] >> g & 1 and not rows[f] >> (g | bit) & 1:
                        rows[f] |= 1 << (g | bit)
                        grown = True
                if add:
                    rows[f | bit] |= add
                    grown = True
    return rows


def _implication_samples():
    """Every relation at |S| = 2, then random ones at |S| = 3 and 4 drawn
    to meet each hypothesis: random relations made 1-reflexive, the
    lower cut closures and the entailment closures of random relations,
    and Scott relations."""
    for code in range(1 << 16):
        yield 2, [(code >> (4 * f)) & 15 for f in range(4)]
    rng = gen.rng_for(1414)
    for n, count in ((3, 12), (4, 3)):
        ground = gen.ground(n)
        for _ in range(count):
            rows = list(gen.random_relation(rng, ground).rows)
            for s in range(n):
                rows[1 << s] |= 1 << (1 << s)
            yield n, rows
            sparse = [row & rng.getrandbits(1 << n) & rng.getrandbits(1 << n)
                      for row in gen.random_relation(rng, ground).rows]
            yield n, _rule_closure(n, sparse, upper=False)
            yield n, _rule_closure(n, sparse, upper=True)
            yield n, list(gen.random_scott(rng, ground).rel.rows)


def test_hierarchy_implications_hold_for_the_naive_oracles():
    # classify reads these off its structural flags instead of searching:
    # 1-reflexive => divisible, lower and cut => semicut, entailment =>
    # cut-transitive, Scott => its own derived relation
    hits = {}
    for n, rows in _implication_samples():
        if n == 2:
            divisible = oracles.naive_divisible
            cut_transitive = oracles.naive_cut_transitive
        else:
            # the literal family tables are out of reach at |S| = 4
            def divisible(n, rows):
                composed = oracles.naive_compose_maximal(
                    n, rows, oracles.naive_one_exists(n, rows))
                return all(a & ~b == 0 for a, b in zip(rows, composed))

            def cut_transitive(n, rows):
                composed = oracles.naive_compose_maximal(n, rows, rows)
                return all(a & ~b == 0 for a, b in zip(composed, rows))
        one_refl = oracles.naive_one_reflexive(n, rows)
        lower_cut = oracles.naive_lower(n, rows) and oracles.naive_cut(n, rows)
        entailment = lower_cut and oracles.naive_upper(n, rows)
        if one_refl:
            assert divisible(n, rows), rows
        if lower_cut:
            assert oracles.naive_semicut(n, rows), rows
        if entailment:
            assert cut_transitive(n, rows), rows
        if entailment and one_refl:
            assert oracles.naive_vdash(n, rows) == list(rows), rows
        for name, held in (("one_refl", one_refl), ("lower_cut", lower_cut),
                           ("entailment", entailment),
                           ("lower_cut_not_upper", lower_cut and not entailment),
                           ("entailment_not_scott", entailment and not one_refl),
                           ("scott", entailment and one_refl)):
            if held:
                hits[name, n] = hits.get((name, n), 0) + 1
    assert len(hits) == 18, sorted(hits)


def _check_classify_against_full_searches(sys):
    """classify's flags, witnesses and derived relation equal the ones the
    full searches give on a fresh system over the same relation."""
    rel = sys.rel
    cls = classify(sys, with_witnesses=True)
    fresh = CoverSystem(sys.ground, rel)
    ct = cut_transitive_witness(fresh)
    div = divisibility_witness(fresh)
    semi = semicut_witness(fresh)
    vdash = axioms._compute_vdash(fresh)
    strong = cls.is_monotone and ct is None and div is None
    cov = composition.composition_excess_witness(vdash, rel, rel) if strong else None
    assert derive_vdash(sys) == vdash, rel.rows
    assert (cls.is_cut_transitive, cls.is_divisible, cls.is_semicut,
            cls.is_strong_idempotent, cls.is_cover) == (
        ct is None, div is None, semi is None, strong, strong and cov is None), rel.rows
    assert list(cls.witnesses.items()) == list(
        _eager_witnesses(fresh, vdash, ct, div, semi, cov).items()), rel.rows
    return cls


def _eager_witnesses(sys, vdash, ct, div, semi, cov):
    """The witness dict that classify named eagerly before it kept codes:
    the literal structural and 1-reflexivity witnesses, antisymmetry off
    the derived relation ``vdash``, and the given searches' witnesses, in
    classify's key order."""
    n, rows, names = sys.ground.size, sys.rel.rows, sys.ground.names

    def named(*codes):
        return dict(zip("FGH", ([names[i] for i in iter_bits(c)] for c in codes)))

    out = {}
    for key, wit in (("upper", oracles.naive_upper_witness(n, rows)),
                     ("lower", oracles.naive_lower_witness(n, rows)),
                     ("cut", oracles.naive_cut_witness(n, rows))):
        if wit is not None:
            out[key] = {**named(wit[0], wit[1]), "s": names[wit[2]]}
    if not oracles.naive_one_reflexive(n, rows):
        out["one_reflexive"] = {"s": next(
            names[i] for i in range(n) if not rows[1 << i] >> (1 << i) & 1)}
    for key, wit in (("cut_transitive", ct), ("divisible", div), ("semicut", semi),
                     ("cover", cov)):
        if wit is not None:
            out[key] = named(*wit)
    anti = oracles.vdash_antisymmetry_witness(sys, vdash)
    if anti is not None:
        out["antisymmetric"] = {"s": anti[0], "t": anti[1]}
    return out


def test_classify_equals_full_searches_exhaustive():
    # at |S| = 2 the covers are the 16 Scott relations; the 25 other
    # strong idempotents (17 of them entailments) keep the cover check
    seen = set()
    for rel in _all_relations(G2):
        cls = _check_classify_against_full_searches(CoverSystem(G2, rel))
        seen.add((cls.is_one_reflexive, cls.is_entailment,
                  cls.is_strong_idempotent, cls.is_cover))
    assert len(seen) == 6


def test_classify_equals_full_searches_random():
    rng = gen.rng_for(1515)
    samplers = (
        lambda g: CoverSystem(g, gen.random_relation(rng, g)),
        lambda g: CoverSystem(g, gen.random_monotone(rng, g)),
        lambda g: gen.random_scott(rng, g),
        lambda g: gen.random_strong_idempotent(rng, g),
    )
    scott = 0
    for n, count in ((3, 40), (4, 15), (5, 4)):
        ground = gen.ground(n)
        for sample in samplers:
            for _ in range(count):
                # a fresh system, so classify runs here
                sys = sample(ground)
                cls = _check_classify_against_full_searches(CoverSystem(ground, sys.rel))
                scott += cls.is_scott
    assert scott >= 80


# -- work done per classification -----------------------------------------------------

def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_building_a_system_runs_no_classification(monkeypatch):
    calls = _counting(monkeypatch, axioms, "_compute_classification")
    rng = gen.rng_for(505)
    for ground in (G2, G3):
        for rel in (gen.random_relation(rng, ground), gen.random_monotone(rng, ground)):
            sys = CoverSystem(ground, rel)
    assert calls == []
    first = sys.classification
    assert sys.classification is first
    assert len(calls) == 1


def test_classify_composes_at_most_three_times(monkeypatch):
    # cut-transitivity and divisibility share one self-composition pass;
    # the cover check is the one composition through the row generator,
    # and the one reader of the derived relation.  A Scott relation is
    # its own derived relation and a cover, so it has neither, and its
    # pass builds no lower closure of one_exists(rel); the non-Scott
    # strong idempotent (the golden input strong4.json, not 1-reflexive)
    # keeps all three
    pass_calls = _counting(monkeypatch, axioms, "_self_composition_witnesses")
    one_calls = _counting(monkeypatch, axioms, "_one_exists_lower_closure")
    rows_calls = _counting(monkeypatch, composition, "_composed_rows")
    vdash_calls = _counting(monkeypatch, axioms, "derive_vdash")
    scott = (meet_system(3), lattice_cover(boolean4_lattice()),
             topology_cover(sierpinski_space()), gen.random_scott(gen.rng_for(606), G3))
    # a fresh system: the generator classified its own
    strong = gen.random_strong_idempotent(gen.rng_for(22), gen.ground(4))
    strong = CoverSystem(strong.ground, strong.rel)
    for sys, composed in [(sys, 0) for sys in scott] + [(strong, 1)]:
        del pass_calls[:], one_calls[:], rows_calls[:], vdash_calls[:]
        cls = classify(sys, with_witnesses=True)
        assert cls.is_strong_idempotent
        assert cls.is_scott == (composed == 0)
        assert len(pass_calls) == 1
        assert len(one_calls) == composed
        assert len(rows_calls) == composed
        assert len(vdash_calls) == composed


def test_classify_builds_no_derived_relation_unless_strong(monkeypatch):
    # a system that is not a strong idempotent has no cover check, so
    # classify builds neither the derived relation nor one_exists; a
    # later derive_vdash builds the derived relation once
    from coverkit.builders import m3_lattice

    rng = gen.rng_for(707)
    rels = [lattice_cover(m3_lattice()).rel]
    for ground in (G2, G3):
        rels += [gen.random_relation(rng, ground) for _ in range(3)]
        rels += [gen.random_monotone(rng, ground) for _ in range(3)]
    systems = [CoverSystem(rel.left, rel) for rel in rels
               if not CoverSystem(rel.left, rel).classification.is_strong_idempotent]
    assert len(systems) >= 8
    vdash_calls = _counting(monkeypatch, axioms, "_compute_vdash")
    one_calls = _counting(monkeypatch, relations, "one_exists")
    # counted too if axioms ever imports the name again
    monkeypatch.setattr(axioms, "one_exists", relations.one_exists, raising=False)
    for sys in systems:
        del vdash_calls[:], one_calls[:]
        assert not classify(sys, with_witnesses=True).is_strong_idempotent
        assert vdash_calls == [] and one_calls == []
        first = derive_vdash(sys)
        assert derive_vdash(sys) is first
        assert len(vdash_calls) == 1


def test_lattice_path_classifies_and_derives_once(monkeypatch):
    # the derived relation is built at most once; a Scott relation (the
    # Boolean lattice's cover) is its own, taken by classify with no build
    from coverkit.builders import m3_lattice

    classify_calls = _counting(monkeypatch, axioms, "_compute_classification")
    vdash_calls = _counting(monkeypatch, axioms, "_compute_vdash")
    for lattice, builds in ((boolean4_lattice(), 0), (m3_lattice(), 1)):
        del classify_calls[:], vdash_calls[:]
        sys = lattice_cover(lattice)
        cls = classify(sys, with_witnesses=True)
        assert cls.is_scott == (builds == 0)
        Spectrum(sys)
        verify_representation(sys)
        vdash = derive_vdash(sys)
        assert sys.classification is cls
        assert len(classify_calls) == 1
        assert len(vdash_calls) == builds
        assert (vdash is sys.rel) == (builds == 0)


def test_cached_classification_serves_both_witness_modes():
    rng = gen.rng_for(808)
    for ground in (G2, G3):
        for _ in range(20):
            rel = gen.random_relation(rng, ground)
            fresh = classify(CoverSystem(ground, rel), with_witnesses=True)
            sys = CoverSystem(ground, rel)
            bare = classify(sys)
            assert bare.witnesses == {} and bare.to_dict() == fresh.to_dict()
            full = classify(sys, with_witnesses=True)
            assert full.witnesses == fresh.witnesses
            assert classify(sys).witnesses == {}
            assert sys.classification is full


def test_witnesses_are_named_on_first_read():
    # the flags, to_dict, axiom, the bare copy and the spectrum and frame
    # checks, which read sys.classification, name no witness; the first
    # read of ``witnesses`` names them once
    from coverkit.frame import frame_model

    rng = gen.rng_for(909)
    systems = [CoverSystem(g, gen.random_relation(rng, g)) for g in (G2, G3) for _ in range(10)]
    systems += [lattice_cover(boolean4_lattice()), meet_system(2)]
    for sys in systems:
        cls = sys.classification
        cls.is_cut, cls.to_dict(), cls.axiom("cover")
        assert classify(sys).witnesses == {}
        assert classify(sys, with_witnesses=True) is cls
        Spectrum(sys)
        if cls.is_cover:
            frame_model(sys)
        assert sys.classification is cls and "witnesses" not in vars(cls)
        named = cls.witnesses
        assert vars(cls)["witnesses"] is named and cls.witnesses is named
        assert named == CoverSystem(sys.ground, sys.rel).classification.witnesses


def test_a_classification_keeps_no_system_alive():
    # the code witnesses hold the ground's labels, not the system: with
    # the cyclic collector off, the system is freed by reference counts
    # alone while its classification lives on, named or not
    import gc
    import weakref

    class Probe(CoverSystem):
        pass    # a subclass takes weak references

    rng = gen.rng_for(910)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for read in (False, True):
            for ground in (G2, G3):
                sys = Probe(ground, gen.random_relation(rng, ground))
                cls = classify(sys, with_witnesses=True)
                if read:
                    cls.witnesses
                ref = weakref.ref(sys)
                del sys
                assert ref() is None
                assert cls.witnesses
    finally:
        if enabled:
            gc.enable()


def test_sandwich_instances_satisfy_cut_rule():
    # a WEAKER upper relation squeezed between compositions with a
    # 1-reflexive lower relation satisfies the cut rule; the containment
    # in the base relation is an essential hypothesis (see below)
    checked = 0
    for _ in range(120):
        ground = gen.ground(RNG.choice([2, 3]))
        scott, derived = gen.sandwich_instance(RNG, ground)
        low = cut_compose(scott, derived)
        up = cut_compose(scott, one_exists(derived))
        if (derived.issubset(scott) and low.issubset(derived)
                and derived.issubset(up)):
            assert is_cut(derived)
            checked += 1
    assert checked > 60


# without containment in the base relation the squeeze does not force the
# cut rule: this instance satisfies every other hypothesis (1-reflexive
# lower base, upper squeezed relation, both compositions) yet fails cut
# at F = {a}, G = {a}, s = b
SQUEEZE_BASE = (0, 170, 236, 238, 240, 250, 252, 254)
SQUEEZE_NOT_BELOW = (0, 252, 254, 254, 250, 254, 254, 254)


def test_squeeze_needs_containment_fixture():
    base = Relation(G3, G3, SQUEEZE_BASE)
    rel = Relation(G3, G3, SQUEEZE_NOT_BELOW)
    assert is_one_reflexive(base) and is_lower(base)
    assert is_upper(rel)
    assert cut_compose(base, rel).issubset(rel)
    assert rel.issubset(cut_compose(base, one_exists(rel)))
    assert not rel.issubset(base)
    assert not is_cut(rel)
