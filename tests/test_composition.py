from itertools import product

import gen
from oracles import bits_of, family_tables, naive_compose_literal, naive_compose_maximal
from coverkit.kernel import iter_bits
from coverkit.relations import Relation, is_lower, one_exists
from coverkit.composition import cut_compose
from coverkit.builders import meet_system

G2 = gen.ground(2)
G3 = gen.ground(3)
RNG = gen.rng_for(202)


def test_scott_relation_cut_idempotent():
    rel = meet_system(3).rel
    assert cut_compose(rel, rel) == rel


def test_empty_row_semantics():
    # a row related to nothing composes to the targets every family entails
    rel_a = Relation.empty(G2)
    rel_b = gen.random_monotone(RNG, G2)
    composed = cut_compose(rel_a, rel_b)
    expect = (1 << 4) - 1
    for row in rel_b.rows:
        expect &= row
    assert all(r == expect for r in composed.rows)


def test_any_right_operand_matches_literal_search():
    # no lowerness assumed on either side: every pair at |S|=1, random
    # arbitrary pairs at |S|=2 and 3, against the literal witness search
    rng = gen.rng_for(2021)
    g1 = gen.ground(1)
    all_g1 = [Relation(g1, g1, rows) for rows in product(range(4), repeat=2)]
    pairs = [(1, a, b) for a in all_g1 for b in all_g1]
    pairs += [(2, gen.random_relation(rng, G2), gen.random_relation(rng, G2))
              for _ in range(300)]
    pairs += [(3, gen.random_relation(rng, G3), gen.random_relation(rng, G3))
              for _ in range(25)]
    non_lower = 0
    for n, a, b in pairs:
        non_lower += not is_lower(b)
        lit = naive_compose_literal(n, a.rows, b.rows)
        assert list(cut_compose(a, b).rows) == lit
        assert naive_compose_maximal(n, a.rows, b.rows) == lit
    assert len(pairs) == 581 and non_lower > 400


def test_associativity_on_monotone_triples():
    for _ in range(150):
        a = gen.random_monotone(RNG, G2)
        b = gen.random_monotone(RNG, G2)
        c = gen.random_monotone(RNG, G2)
        assert cut_compose(cut_compose(a, b), c) == cut_compose(a, cut_compose(b, c))


def test_associativity_with_literal_witness_search():
    # both association orders also agree with the brute-force witness search
    for _ in range(25):
        a = gen.random_monotone(RNG, G2)
        b = gen.random_monotone(RNG, G2)
        c = gen.random_monotone(RNG, G2)
        lhs = naive_compose_literal(2, naive_compose_literal(2, a.rows, b.rows), c.rows)
        rhs = naive_compose_literal(2, a.rows, naive_compose_literal(2, b.rows, c.rows))
        assert lhs == rhs == list(cut_compose(cut_compose(a, b), c).rows)


def test_maximal_witness_equals_literal_search():
    for n, ground, reps in ((2, G2, 120), (3, G3, 25)):
        for _ in range(reps):
            a = gen.random_relation(RNG, ground)
            b = gen.random_monotone(RNG, ground)
            assert list(cut_compose(a, b).rows) == naive_compose_literal(n, a.rows, b.rows)


def test_literal_search_matches_full_double_enumeration():
    # the literal search fixes the right witness maximal; spot-check that
    # this is harmless against enumerating both witness families
    from itertools import combinations

    def double_enum(n, rows_a, rows_b):
        t = family_tables(n)
        size = 1 << n
        cols_b = [0] * size
        for g in range(size):
            for tc in range(size):
                if rows_b[g] >> tc & 1:
                    cols_b[tc] |= 1 << g
        out = []
        for r in range(size):
            fstar = bits_of(rows_a[r])
            m = 0
            for tc in range(size):
                gstar = bits_of(cols_b[tc])
                hit = False
                for i in range(len(fstar) + 1):
                    for fc in combinations(fstar, i):
                        fmask = sum(1 << x for x in fc)
                        for j in range(len(gstar) + 1):
                            for gc in combinations(gstar, j):
                                gmask = sum(1 << x for x in gc)
                                if t.sel[fmask] & ~t.sup[gmask] == 0:
                                    hit = True
                                    break
                            if hit:
                                break
                        if hit:
                            break
                    if hit:
                        break
                if hit:
                    m |= 1 << tc
            out.append(m)
        return out

    for _ in range(25):
        a = gen.random_relation(RNG, G2)
        b = gen.random_relation(RNG, G2)
        lit = naive_compose_literal(2, a.rows, b.rows)
        assert lit == double_enum(2, a.rows, b.rows)
        assert lit == list(cut_compose(a, b).rows)


def test_forall_right_distributes_for_lower_operand():
    # extending the right coordinate universally commutes with composition
    # when the right operand is lower
    for _ in range(60):
        a = gen.random_relation(RNG, G2)
        b = gen.random_monotone(RNG, G2)
        composed = cut_compose(a, b)
        for r in range(4):
            for hmask in range(1 << 4):
                lhs = all(composed.holds(r, h) for h in iter_bits(hmask))
                # right side: compose a with the universal extension of b
                sel = _selection_of_row(a.rows[r])
                rhs = all(
                    all(b.holds(g, h) for h in iter_bits(hmask))
                    for g in iter_bits(sel)
                )
                assert lhs == rhs


def _selection_of_row(row_mask):
    from coverkit.kernel import selections_mask

    return selections_mask(2, row_mask)


def test_forall_left_distributes_for_upper_operand():
    for _ in range(60):
        a = gen.random_monotone(RNG, G2)
        b = gen.random_monotone(RNG, G2)
        composed = cut_compose(a, b)
        for emask in range(1 << 4):
            row_joint = (1 << 4) - 1
            for e in iter_bits(emask):
                row_joint &= a.rows[e]
            sel = _selection_of_row(row_joint)
            for t in range(4):
                lhs = all(composed.holds(e, t) for e in iter_bits(emask))
                rhs = all(b.holds(g, t) for g in iter_bits(sel))
                assert lhs == rhs


def test_exists_extension_composes_through_forall():
    # composing the existential extension equals ordinary composition of
    # the universal extension
    for _ in range(40):
        elem = [RNG.randrange(1 << 3) for _ in range(1 << 3)]  # F(Q) x S
        b = gen.random_monotone(RNG, G3)
        exist_rows = []
        for r in range(8):
            m = 0
            for g in range(8):
                if g & elem[r]:
                    m |= 1 << g
            exist_rows.append(m)
        lhs = cut_compose(Relation(G3, G3, exist_rows), b)
        for r in range(8):
            for t in range(8):
                rhs = any(
                    h & ~elem[r] == 0 and b.holds(h, t) for h in range(8)
                )
                assert lhs.holds(r, t) == rhs


def test_one_exists_respected_by_composition():
    for _ in range(80):
        a = gen.random_monotone(RNG, G2)
        b = gen.random_monotone(RNG, G2)
        lhs = cut_compose(one_exists(a), one_exists(b))
        rhs = one_exists(cut_compose(a, b))
        assert lhs.issubset(rhs)


def test_composition_preserves_monotone():
    from coverkit.relations import is_upper

    for _ in range(60):
        a = gen.random_monotone(RNG, G3)
        b = gen.random_monotone(RNG, G3)
        c = cut_compose(a, b)
        assert is_upper(c) and is_lower(c)
