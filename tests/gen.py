"""Seeded random generators and exhaustive small-structure catalogues."""

import random
from itertools import combinations

from coverkit.kernel import GroundSet, all_groundsets_named, iter_bits
from coverkit.relations import CoverSystem, Relation, one_exists
from coverkit.composition import cut_compose
from coverkit.spectrum import FiniteSpace
from coverkit.builders import FiniteLattice
from coverkit.category import SpaceMap


def rng_for(seed) -> random.Random:
    return random.Random(seed)


def constant_map(source: FiniteSpace, target: FiniteSpace, point: int) -> SpaceMap:
    """The total map of ``source`` onto the one point ``point`` of ``target``."""
    return SpaceMap(source, target, {i: point for i in range(len(source.points))})


def inclusion_map(space: FiniteSpace, open_mask: int) -> SpaceMap:
    """The partial identity of ``space`` on the open set ``open_mask``."""
    return SpaceMap(space, space, {i: i for i in iter_bits(open_mask)})


def random_relation(rng, ground: GroundSet) -> Relation:
    size = ground.num_subsets
    width = 1 << size
    return Relation(ground, ground, [rng.randrange(width) for _ in range(size)])


def monotone_closure(rel: Relation) -> Relation:
    ground = rel.left
    n = ground.size
    size = ground.num_subsets
    rows = list(rel.rows)
    # close each row upward on the right
    for f in range(size):
        row = rows[f]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = 0
                for g in iter_bits(row):
                    grown |= 1 << (g | 1 << i)
                if grown & ~row:
                    row |= grown
                    changed = True
        rows[f] = row
    # close rows downward on the left (supersets inherit)
    for f in sorted(range(size), key=lambda c: bin(c).count("1")):
        for i in range(n):
            if not f >> i & 1:
                rows[f | 1 << i] |= rows[f]
    return Relation(ground, ground, rows)


def random_monotone(rng, ground: GroundSet, density: float = None) -> Relation:
    size = ground.num_subsets
    width = size
    if density is None:
        density = rng.choice([0.02, 0.05, 0.1, 0.2, 0.4])
    rows = []
    for _ in range(size):
        m = 0
        for g in range(width):
            if rng.random() < density:
                m |= 1 << g
        rows.append(m)
    return monotone_closure(Relation(ground, ground, rows))


def cut_transitive_closure(rel: Relation) -> Relation:
    while True:
        grown = rel.union(cut_compose(rel, rel))
        if grown == rel:
            return rel
        rel = grown


def divisible_trim(rel: Relation) -> Relation:
    while True:
        trimmed = rel.intersection(cut_compose(rel, one_exists(rel)))
        if trimmed == rel:
            return rel
        rel = trimmed


def random_scott(rng, ground: GroundSet) -> CoverSystem:
    """Meet relation plus random pairs, closed to a Scott relation."""
    base = Relation.from_predicate(ground, ground, lambda f, g: bool(f & g))
    extra = random_monotone(rng, ground)
    rel = cut_transitive_closure(monotone_closure(base.union(extra)))
    return CoverSystem(ground, rel)


def anchored_system(ground: GroundSet, anchor_mask: int) -> CoverSystem:
    rel = Relation.from_predicate(
        ground, ground,
        lambda f, g: bool(f & anchor_mask) and bool(g & anchor_mask),
    )
    return CoverSystem(ground, rel)


def random_strong_idempotent(rng, ground: GroundSet, tries: int = 80) -> CoverSystem:
    """Mixed-strategy sampler; every returned system is verified strong."""
    n = ground.size
    for _ in range(tries):
        dice = rng.random()
        if dice < 0.35:
            sys = random_scott(rng, ground)
        elif dice < 0.6 and n:  # an anchor needs a non-empty ground set
            anchor = rng.randrange(1, 1 << n)
            sys = anchored_system(ground, anchor)
        elif dice < 0.7:
            sys = CoverSystem(ground, Relation.empty(ground))
        else:
            rel = random_monotone(rng, ground)
            ok = False
            for _ in range(10):
                rel = cut_transitive_closure(rel)
                trimmed = divisible_trim(rel)
                if trimmed == rel:
                    ok = True
                    break
                rel = trimmed
            if not ok:
                continue
            sys = CoverSystem(ground, rel)
        if sys.classification.is_strong_idempotent:
            return sys
    raise RuntimeError("could not sample a strong idempotent")


def upper_closure(rel: Relation) -> Relation:
    ground = rel.left
    n = ground.size
    rows = []
    for row in rel.rows:
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = 0
                for g in iter_bits(row):
                    grown |= 1 << (g | 1 << i)
                if grown & ~row:
                    row |= grown
                    changed = True
        rows.append(row)
    return Relation(ground, ground, rows)


def sandwich_instance(rng, ground: GroundSet):
    """A 1-reflexive lower relation together with a weaker upper relation
    squeezed between its compositions; the (corrected) hypotheses of the
    cut-rule derivation hold by construction.  Intersecting with the base
    keeps the squeezed relation below it, which the derivation needs."""
    scott = random_scott(rng, ground).rel
    x = random_monotone(rng, ground).intersection(scott)
    derived = cut_compose(scott, one_exists(x))
    return scott, derived


# ---------------------------------------------------------------------------
# exhaustive catalogues of small posets / lattices / topologies
# ---------------------------------------------------------------------------

def all_posets(k: int):
    """All partial orders on k labelled points, as leq row masks."""
    if k == 0:
        return [()]
    pairs = list(combinations(range(k), 2))
    out = []
    for assignment in range(3 ** len(pairs)):
        rows = [1 << i for i in range(k)]
        a = assignment
        for (i, j) in pairs:
            state = a % 3
            a //= 3
            if state == 1:
                rows[i] |= 1 << j
            elif state == 2:
                rows[j] |= 1 << i
        ok = True
        for i in range(k):
            for j in iter_bits(rows[i]):
                if rows[j] & ~rows[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(rows))
    return out


def poset_is_lattice(rows) -> bool:
    k = len(rows)
    downs = [sum(1 << i for i in range(k) if rows[i] >> j & 1) for j in range(k)]

    def bound(cands, upper):
        best = None
        for c in iter_bits(cands):
            if best is None:
                best = c
            elif upper and rows[c] >> best & 1:
                best = c
            elif not upper and rows[best] >> c & 1:
                best = c
        if best is None:
            return None
        for c in iter_bits(cands):
            if upper and not rows[best] >> c & 1:
                return None
            if not upper and not rows[c] >> best & 1:
                return None
        return best

    for i in range(k):
        for j in range(k):
            if bound(rows[i] & rows[j], True) is None:
                return False
            if bound(downs[i] & downs[j], False) is None:
                return False
    return True


def all_lattices(k: int):
    """All labelled lattices on k points as FiniteLattice values."""
    names = tuple(f"v{i}" for i in range(k))
    out = []
    for rows in all_posets(k):
        if k and poset_is_lattice(rows):
            out.append(FiniteLattice(names, rows))
    return out


def random_lattice(rng, max_size: int) -> FiniteLattice:
    """A random lattice on at most ``max_size`` elements, labelled in a
    shuffled order: the inclusion order of a random intersection-closed
    family of subsets of a three-point set, whole set included."""
    while True:
        sets = {7} | {rng.randrange(8) for _ in range(rng.randrange(2, 6))}
        more = {a & b for a in sets for b in sets} - sets
        while more:
            sets |= more
            more = {a & b for a in sets for b in sets} - sets
        if len(sets) <= max_size:
            break
    order = list(sets)
    rng.shuffle(order)
    leq = tuple(sum(1 << j for j, b in enumerate(order) if a & b == a) for a in order)
    return FiniteLattice(tuple(f"e{i}" for i in range(len(order))), leq)


def all_t0_spaces(k: int):
    """Every T0 topology on k labelled points (as up-set topologies of
    the partial orders, which finitely is all of them)."""
    out = []
    names = tuple(f"p{i}" for i in range(k))
    for rows in all_posets(k):
        ups = [sum(1 << j for j in range(k) if rows[i] >> j & 1) for i in range(k)]
        opens = {0}
        frontier = {0}
        while frontier:
            new = set()
            for o in frontier:
                for u in ups:
                    c = o | u
                    if c not in opens:
                        new.add(c)
            opens |= new
            frontier = new
        opens = tuple(sorted(opens))
        # minimal open neighbourhoods form a basis
        sub = tuple(sorted(set(ups)))
        out.append(FiniteSpace(names, opens, sub))
    return out


def subbasis_choices(space: FiniteSpace):
    """Up to three deterministic generating subbases for a space."""
    full = space.full_mask
    choices = [space.subbasis]
    with_top = tuple(sorted(set(space.subbasis) | {full}))
    choices.append(with_top)
    if len(space.opens) <= 10:
        # greedy irredundant reduction of all nonempty opens
        from coverkit.spectrum import generated_opens

        reduced = [o for o in sorted(space.opens, reverse=True) if o]
        for o in sorted(reduced):
            candidate = [s for s in reduced if s != o]
            cover = 0
            for s in candidate:
                cover |= s
            if candidate and cover == full and generated_opens(
                len(space.points), tuple(candidate)
            ) == frozenset(space.opens):
                reduced = candidate
        choices.append(tuple(sorted(reduced)))
    else:
        # enrich the minimal basis with the first nontrivial extra open
        extra = next(
            (o for o in sorted(space.opens)
             if o and o != full and o not in space.subbasis),
            None,
        )
        if extra is not None:
            choices.append(tuple(sorted(set(with_top) | {extra})))
    seen = set()
    unique = []
    for c in choices:
        if c not in seen:
            seen.add(c)
            unique.append(c)
    return [FiniteSpace(space.points, space.opens, c) for c in unique]


def ground(n: int) -> GroundSet:
    return all_groundsets_named(n)
