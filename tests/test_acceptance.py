"""Acceptance suite: one test per exit criterion, zero-tolerance.

Each test prints a single PASS line with its headline numbers (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The suite is
oracle-based: classification is checked against the independent naive
evaluator, tight sets against brute-force filter enumerations, and the
composition against the literal witness search.
"""

import json
import time

import gen
from oracles import naive_classify, naive_compose_literal
from coverkit.kernel import Family, iter_bits
from coverkit.relations import CoverSystem, Relation, one_exists
from coverkit.composition import cut_compose
from coverkit.axioms import classify, derive_vdash, is_auxiliary
from coverkit.builders import (
    boolean4_lattice,
    chain_lattice,
    corpus,
    lattice_cover,
    meet_system,
)
from coverkit.spectrum import (
    FiniteSpace,
    Spectrum,
    birkhoff_stone,
    birkhoff_stone_families,
    homeomorphic,
    is_prime,
    is_round,
    recovery,
    tight_codes,
    verify_representation,
)
from coverkit.frame import frame_model, karoubi_envelope, verify_frame_laws, verify_open_iso
from coverkit.category import (
    CoverMorphism,
    SpaceMap,
    ab_functor,
    compose_morphisms,
    is_cover_morphism,
    sp_functor,
    verify_duality_space,
    verify_duality_system,
)


def _announce(n, detail):
    print(f"\nACCEPTANCE {n} PASS: {detail}")


# ---------------------------------------------------------------------------
# shared suite of random strong idempotents (criteria 3 and 4)
# ---------------------------------------------------------------------------

_SUITE = None


def strong_suite():
    """Corpus plus 1000 seeded random strong idempotents at |S| <= 4."""
    global _SUITE
    if _SUITE is None:
        rng = gen.rng_for(0xC0FFEE)
        systems = [sys for _, sys, _ in corpus()]
        sizes = [2, 3, 3, 4]
        for k in range(1000):
            ground = gen.ground(sizes[k % len(sizes)])
            systems.append(gen.random_strong_idempotent(rng, ground))
        _SUITE = systems
    return _SUITE


def test_criterion_01_axiom_hierarchy_oracle_equivalence():
    t0 = time.time()
    g2 = gen.ground(2)
    checked = 0
    for bits in range(1 << 16):
        rows = ((bits >> 0) & 15, (bits >> 4) & 15, (bits >> 8) & 15, (bits >> 12) & 15)
        got = CoverSystem(g2, Relation(g2, g2, rows)).classification.to_dict()
        want = naive_classify(2, rows)
        assert got == want, (rows, got, want)
        checked += 1
    exhaustive_time = time.time() - t0

    rng = gen.rng_for(11)
    g3 = gen.ground(3)
    t1 = time.time()
    for _ in range(10000):
        rel = gen.random_monotone(rng, g3)
        got = classify(CoverSystem(g3, rel)).to_dict()
        want = naive_classify(3, rel.rows)
        assert got == want, rel.rows
        checked += 1
    _announce(1, f"{checked} relations classified identically to the naive "
                 f"oracle (65536 exhaustive at |S|=2 in {exhaustive_time:.0f}s, "
                 f"10000 random monotone at |S|=3 in {time.time()-t1:.0f}s)")


def test_criterion_02_cut_composition_laws():
    rng = gen.rng_for(22)
    t0 = time.time()

    grounds = {n: gen.ground(n) for n in (1, 2, 3)}

    # associativity on monotone relations
    for k in range(1000):
        g = grounds[(k % 3) + 1]
        a, b, c = (gen.random_monotone(rng, g) for _ in range(3))
        assert cut_compose(cut_compose(a, b), c) == cut_compose(a, cut_compose(b, c))

    # universal extension on the right commutes (lower right operand)
    from coverkit.kernel import selections_mask

    for k in range(1000):
        n = (k % 2) + 2
        g = grounds[n]
        a = gen.random_relation(rng, g)
        b = gen.random_monotone(rng, g)
        composed = cut_compose(a, b)
        size = g.num_subsets
        for r in range(size):
            sel = selections_mask(n, a.rows[r])
            for hmask in range(1 << size):
                lhs = all(composed.holds(r, h) for h in iter_bits(hmask))
                rhs = all(
                    all(b.holds(gg, h) for h in iter_bits(hmask))
                    for gg in iter_bits(sel)
                )
                assert lhs == rhs

    # universal extension on the left commutes (upper left operand)
    for k in range(1000):
        n = (k % 2) + 1
        g = grounds[n + 1]
        a = gen.random_monotone(rng, g)
        b = gen.random_monotone(rng, g)
        composed = cut_compose(a, b)
        size = g.num_subsets
        for emask in range(1 << size):
            joint = (1 << size) - 1
            for e in iter_bits(emask):
                joint &= a.rows[e]
            sel = selections_mask(g.size, joint)
            for t in range(size):
                lhs = all(composed.holds(e, t) for e in iter_bits(emask))
                rhs = all(b.holds(gg, t) for gg in iter_bits(sel))
                assert lhs == rhs

    # existential extensions compose through plain composition
    for k in range(1000):
        g = grounds[3]
        elem = [rng.randrange(8) for _ in range(8)]
        b = gen.random_monotone(rng, g)
        rows = []
        for r in range(8):
            rows.append(sum(1 << gg for gg in range(8) if gg & elem[r]))
        lhs = cut_compose(Relation(g, g, rows), b)
        for r in range(8):
            for t in range(8):
                rhs = any(h & ~elem[r] == 0 and b.holds(h, t) for h in range(8))
                assert lhs.holds(r, t) == rhs

    # singleton-existential strengthening is respected
    for k in range(1000):
        g = grounds[(k % 3) + 1]
        a = gen.random_monotone(rng, g)
        b = gen.random_monotone(rng, g)
        assert cut_compose(one_exists(a), one_exists(b)).issubset(
            one_exists(cut_compose(a, b)))

    # maximal witness equals the literal search
    lit = 0
    for k in range(1000):
        n = 3 if k % 5 == 0 else 2
        g = grounds[n]
        a = gen.random_relation(rng, g)
        b = gen.random_monotone(rng, g)
        assert list(cut_compose(a, b).rows) == naive_compose_literal(n, a.rows, b.rows)
        lit += 1
    _announce(2, f"5 composition laws x 1000 instances plus {lit} literal-search "
                 f"equivalences in {time.time()-t0:.0f}s")


def test_criterion_03_theorem_suite():
    t0 = time.time()
    suite = strong_suite()
    rng = gen.rng_for(33)
    seen = set()
    checked = 0
    for sys in suite:
        key = (sys.ground.names, sys.rel.rows)
        if key in seen:
            continue
        seen.add(key)
        cls = sys.classification
        # entailments are always cut-transitive
        if cls.is_entailment:
            assert cls.is_cut_transitive
        # every Scott relation is a cover relation
        if cls.is_scott:
            assert cls.is_cover
        # for divisible upper relations: semicut iff cut-transitive
        if cls.is_upper and cls.is_divisible:
            assert cls.is_semicut == cls.is_cut_transitive
        # derived-relation properties
        vd = derive_vdash(sys)
        from coverkit.relations import is_lower as lo, is_one_reflexive as orefl, is_upper as up

        assert lo(vd) and orefl(vd)
        if cls.is_upper:
            assert up(vd)
        if cls.is_lower and cls.is_one_reflexive:
            assert vd.issubset(sys.rel)
        if cls.is_cut_transitive:
            assert sys.rel.issubset(vd)
        assert cut_compose(one_exists(sys.rel), vd).issubset(sys.rel)
        if cls.is_strong_idempotent:
            assert CoverSystem(sys.ground, vd).classification.is_scott
            assert cut_compose(sys.rel, vd) == sys.rel
        # cover iff divisible entailment auxiliary to the derived relation
        alt = cls.is_divisible and cls.is_entailment and is_auxiliary(sys.rel, vd)
        assert cls.is_cover == alt
        checked += 1
    # the theorems also hold on plain random monotone relations
    for _ in range(1000):
        g = gen.ground(rng.choice([2, 3]))
        sys = CoverSystem(g, gen.random_monotone(rng, g))
        cls = sys.classification
        if cls.is_entailment:
            assert cls.is_cut_transitive
        if cls.is_scott:
            assert cls.is_cover
        checked += 1
    _announce(3, f"theorem suite over {checked} systems "
                 f"({len(seen)} distinct strong idempotents) in {time.time()-t0:.0f}s")


def test_criterion_04_spectrum_representation():
    t0 = time.time()
    suite = strong_suite()
    seen = {}
    non_cover_witnessed = 0
    for sys in suite:
        if not sys.classification.is_strong_idempotent:
            continue
        key = (sys.ground.names, sys.rel.rows)
        if key in seen:
            continue
        rep = verify_representation(sys)
        seen[key] = rep
        assert rep.strong_idempotent
        assert rep.violations() == [], (key, rep.to_dict())
        assert rep.stably_locally_compact
        assert rep.derived_matches_subset
        assert rep.entail_implies_compact
        # the backward direction holds exactly on covers
        assert rep.compact_implies_entail == rep.is_cover, key
        if not rep.is_cover:
            assert not rep.compact_implies_entail
            non_cover_witnessed += 1
    assert non_cover_witnessed >= 1  # the failure branch is exercised
    _announce(4, f"{len(seen)} distinct strong idempotents: spectra stably "
                 f"locally compact, containment correspondences exact, "
                 f"{non_cover_witnessed} non-cover backward failures witnessed "
                 f"in {time.time()-t0:.0f}s")


def test_criterion_05_recovery_round_trip():
    t0 = time.time()
    count = 0
    for k in (1, 2, 3, 4):
        for space in gen.all_t0_spaces(k):
            for sub in gen.subbasis_choices(space):
                rep = recovery(sub)
                assert rep.passed(), (space, sub.subbasis)
                assert rep.surjective and rep.very_dense
                assert rep.homeomorphism_onto_image
                count += 1
    _announce(5, f"{count} recovery round-trips over the exhaustive T0 "
                 f"catalogue (<= 4 points, 3 subbasis choices) in {time.time()-t0:.0f}s")


def _prime_filters(lat):
    k = lat.size
    out = []
    for t in range(1, 1 << k):
        members = [i for i in range(k) if t >> i & 1]
        if any(not t >> j & 1 for i in members for j in range(k) if lat.leq[i] >> j & 1):
            continue  # not up-closed
        if any(not t >> lat.meet_table[a][b] & 1 for a in members for b in members):
            continue  # not meet-closed
        if t >> lat.bottom & 1:
            continue  # proper: misses the bottom
        prime = all(
            t >> a & 1 or t >> b & 1
            for a in range(k) for b in range(k)
            if t >> lat.join_table[a][b] & 1
        )
        if prime:
            out.append(t)
    return out


def test_criterion_06_stone_priestley_specialisation():
    t0 = time.time()
    lattices = [lat for k in (1, 2, 3, 4, 5) for lat in gen.all_lattices(k)]
    distributive = 0
    for lat in lattices:
        sys = lattice_cover(lat)
        assert sys.classification.is_cut == lat.is_distributive()
        if not lat.is_distributive():
            continue
        distributive += 1
        filters = _prime_filters(lat)
        assert list(tight_codes(sys)) == filters, lat.elements
        # classical spectrum: prime filters with the element subbasis
        if not filters:
            assert Spectrum(sys).tights == ()
            continue
        names = tuple("F" + format(t, "x") for t in filters)
        sub = tuple(sorted({
            sum(1 << i for i, t in enumerate(filters) if t >> e & 1)
            for e in range(lat.size)
        }))
        classical = FiniteSpace.from_subbasis(names, sub)
        assert homeomorphic(Spectrum(sys).space, classical)
    _announce(6, f"{len(lattices)} lattices (<= 5 elements): cut iff "
                 f"distributive; {distributive} distributive ones match the "
                 f"prime-filter oracle and spectrum in {time.time()-t0:.0f}s")


def test_criterion_07_separating_extensions():
    t0 = time.time()
    rng = gen.rng_for(77)
    singles = families = 0
    while singles < 1000 or families < 1000:
        n = rng.choice([2, 3, 4, 5])
        ground = gen.ground(n)
        sys = gen.random_strong_idempotent(rng, ground)
        size = 1 << n
        # shrink a random subset to its round core
        r = rng.randrange(size)
        for _ in range(n + 1):
            core = 0
            for i in iter_bits(r):
                if any(
                    sub & r == sub and sys.rel.holds(sub, 1 << i)
                    for sub in range(size)
                ):
                    core |= 1 << i
            if core == r:
                break
            r = core
        assert is_round(sys, r)
        if singles < 1000:
            q = rng.randrange(1 << n)
            got = birkhoff_stone(sys, r, q)
            if got is not None:
                assert got.bits & r == r and got.bits & q == 0
                assert is_round(sys, got.bits) and is_prime(sys, got.bits)
                singles += 1
        if families < 1000:
            fam_mask = 0
            for _ in range(rng.choice([1, 2, 3])):
                fam_mask |= 1 << rng.randrange(size)
            got = birkhoff_stone_families(sys, r, Family(ground, fam_mask))
            if got is not None:
                assert got.bits & r == r
                assert all(got.bits & h != h for h in iter_bits(fam_mask))
                assert is_round(sys, got.bits) and is_prime(sys, got.bits)
                families += 1
    _announce(7, f"1000 single and 1000 family separating tight extensions "
                 f"found whenever the hypotheses held, in {time.time()-t0:.0f}s")


def test_criterion_08_frame_suite():
    t0 = time.time()
    frames = karoubis = 0
    for name, sys, expected in corpus():
        if not expected["is_monotone"]:
            continue
        try:
            fm = frame_model(sys)
        except ValueError:
            continue
        laws = verify_frame_laws(fm)
        assert laws.violations() == [], (name, laws.to_dict())
        if laws.way_below_consistent is not None:
            assert laws.way_below_consistent
        frames += 1
        if expected["is_strong_idempotent"]:
            assert verify_open_iso(sys).passed(), name
        if sys.ground.size == 2 and len(fm) <= 12:
            env = karoubi_envelope(sys)
            assert env.violations() == [], name
            assert all(env.equations.values()) and env.target_is_cover
            karoubis += 1
    assert karoubis >= 4
    # three named systems at |S| = 4
    named = [
        ("boolean4", lattice_cover(boolean4_lattice())),
        ("chain4", lattice_cover(chain_lattice(4))),
        ("meet4", meet_system(4)),
    ]
    for name, sys in named:
        fm = frame_model(sys)
        laws = verify_frame_laws(fm)
        assert laws.violations() == [], (name, laws.to_dict())
        assert verify_open_iso(sys).passed(), name
        frames += 1
    _announce(8, f"frame laws on {frames} systems (3 named at |S| = 4), "
                 f"{karoubis} Karoubi envelopes verified (all six equations) "
                 f"in {time.time()-t0:.0f}s")


def _space_corpus():
    sier = FiniteSpace.from_named_sets(
        ("x0", "x1"), [[], ["x1"], ["x0", "x1"]], [["x1"], ["x0", "x1"]])
    d2 = FiniteSpace.from_named_sets(
        ("u", "v"), [[], ["u"], ["v"], ["u", "v"]], [["u"], ["v"]])
    chain3 = FiniteSpace.from_named_sets(
        ("u", "v", "w"),
        [[], ["w"], ["v", "w"], ["u", "v", "w"]],
        [["w"], ["v", "w"], ["u", "v", "w"]])
    point = FiniteSpace.from_named_sets(("p",), [[], ["p"]], [["p"]])
    return [sier, d2, chain3, point]


def _maps_between(src, tgt):
    """Identity, constants, inclusions, and the first non-injective
    continuous surjection, deterministically."""
    out = []
    if src == tgt:
        out.append(SpaceMap.identity(src))
        for o in src.opens:
            if o not in (0, src.full_mask):
                out.append(gen.inclusion_map(src, o))
    for point in range(len(tgt.points)):
        out.append(gen.constant_map(src, tgt, point))
    np_, nq = len(src.points), len(tgt.points)
    if np_ > nq:
        for code in range(nq ** np_):
            mapping = {}
            c = code
            for i in range(np_):
                mapping[i] = c % nq
                c //= nq
            if len(set(mapping.values())) != nq:
                continue
            if len(set(mapping.values())) == len(mapping):
                continue
            try:
                out.append(SpaceMap(src, tgt, mapping))
                break
            except ValueError:
                continue
    return out


def test_criterion_09_categorical_duality():
    t0 = time.time()
    spaces = _space_corpus()

    all_maps = []
    for src in spaces:
        for tgt in spaces:
            all_maps.extend(_maps_between(src, tgt))

    # zigzags and naturality on the space side
    squares = 0
    for sp in spaces:
        rep = verify_duality_space(sp, test_maps=all_maps)
        assert rep.passed(), rep.to_dict()
        squares += len(rep.naturality)

    # zigzags and naturality on the system side, morphisms from total maps
    total_morphisms = [
        ab_functor(phi)
        for phi in all_maps if phi.is_total()
    ]
    sys_checked = 0
    for name, sys, expected in corpus():
        if not expected["is_cover"] or sys.ground.size > 4:
            continue
        own = [m for m in total_morphisms if m.source == sys or m.target == sys]
        rep = verify_duality_system(sys, test_morphisms=[CoverMorphism.identity(sys)] + own)
        assert rep.passed(), (name, rep.to_dict())
        sys_checked += 1

    # functoriality equalities on composable pairs
    functorial = 0
    for m1 in total_morphisms:
        for m2 in total_morphisms:
            if m1.target != m2.source:
                continue
            comp = compose_morphisms(m1, m2)
            assert is_cover_morphism(comp)
            assert sp_functor(m1).compose(sp_functor(m2)) == sp_functor(comp)
            functorial += 1
    phi_pairs = 0
    for p1 in all_maps:
        for p2 in all_maps:
            if p1.target != p2.source or not (p1.is_total() and p2.is_total()):
                continue
            lhs = ab_functor(p1.compose(p2))
            rhs = compose_morphisms(ab_functor(p1), ab_functor(p2))
            assert lhs.rel == rhs.rel
            phi_pairs += 1
    _announce(9, f"duality: {len(spaces)} spaces, {sys_checked} cover systems, "
                 f"{squares} naturality squares, {functorial} spectral and "
                 f"{phi_pairs} abstraction functoriality equalities in "
                 f"{time.time()-t0:.0f}s")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    from coverkit.cli import main

    t0 = time.time()
    b4 = {
        "format_version": "1",
        "kind": "lattice",
        "payload": {
            "name": "boolean4",
            "elements": ["0", "a", "b", "1"],
            "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
        },
    }
    sier = {
        "format_version": "1",
        "kind": "topology",
        "payload": {
            "name": "sierpinski",
            "points": ["x0", "x1"],
            "opens": [[], ["x1"], ["x0", "x1"]],
            "subbasis": [["x1"], ["x0", "x1"]],
        },
    }
    fb4 = tmp_path / "b4.json"
    fb4.write_text(json.dumps(b4))
    fsier = tmp_path / "sier.json"
    fsier.write_text(json.dumps(sier))
    # only spectrum and frame write a graph, so only they take --dot
    commands = [
        (["classify", str(fb4)], False),
        (["spectrum", str(fb4)], True),
        (["frame", str(fb4)], True),
        (["dualize", str(fsier)], False),
    ]
    runs = 0
    for k, (cmd, dot) in enumerate(commands):
        dots = [tmp_path / f"{k}a.dot", tmp_path / f"{k}b.dot"]
        outs = []
        for path in dots:
            assert main(cmd + (["--dot", str(path)] if dot else [])) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]
        if dot:
            graph = dots[0].read_text()
            assert graph and graph == dots[1].read_text()
        runs += 1
    _announce(10, f"{runs} CLI commands byte-identical across reruns in "
                  f"{time.time()-t0:.0f}s")
