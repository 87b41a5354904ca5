"""Independent naive reference implementations used as test oracles.

Everything here works on raw data: a relation is (n, rows) where rows[f]
is an integer bitmask over right-hand subset codes.  The code is written
as direct quantifier scans with its own little helpers, deliberately
sharing nothing with the package internals.

The one permitted simplification is the maximal witness pair in
cut-composition: ``naive_compose_lower`` (lower right operand) and
``naive_compose_maximal`` (any right operand, by plain scans, so it
reaches |S| = 4 where the family tables do not).  Their equivalence with
the fully literal search is itself checked by the tests, and
``naive_compose_literal`` below implements that literal search by
outright enumeration of witness subfamilies.

``principal_closure`` generates the quasi-ideals from the principal
ones by closure under binary meets and joins, the reference for
divisible systems above the reach of the per-family scan
``naive_quasi_ideals``.

The cover builders' oracles (``naive_lattice_cover``,
``naive_semilattice_cover``, ``naive_perp_cover``,
``naive_proximity_cover``, ``naive_convexity_entailment``) test each
pair (F, G) by its defining formula, where the package tabulates the
rows with ``kernel.meeting_rows``.

``way_below_directed``, ``naive_karoubi_rows`` and
``naive_frame_vdash_fields`` are three oracles that take a package
object.  The first reads the elements and the joins
of a ``coverkit.frame.FrameModel`` and evaluates the approximation order
pair by pair from its lattice-theoretic definition, independently of the
model's witness form and of the closed-form
``directed_way_below_matrix``.  The second reads the elements and the
way-below matrix of a model and builds the Karoubi envelope's rows by
the per-(s, g) loops, with joins as literal downsets.  The third is the
per-(F, G) loop of the two derived-relation fields of
``verify_frame_laws``, over the model's index and way-below matrix.

The next three references are the package's own earlier paths for the
checks that ``classify`` now evaluates in closed form: the
cut-transitivity and divisibility witnesses scanned off the composed
relations (each composition is checked against the naive ones above),
and the antisymmetry witness read off the derived relation.  Then
``angle_inverse_rows`` is the earlier per-bit loop of
``category.angle_inverse_morphism``, which now gathers columns, and
``scan_upper_witness``, ``scan_lower_witness`` and ``scan_cut_witness``
are the three separate scans of a relation's packed matrix that
``relations`` now runs as one structural pass.

``upsets`` lists the selection families, and ``naive_union_joins``
decides the frame's union-join law by the literal search over every
pair of them, reading only the ground size and the rows of a system;
``verify_frame_laws`` reads the law from a theorem.

``wedge`` (pairwise unions of the members of two families) has no use in
the package; it is here for the family-algebra laws that relate it to
selections.
"""

from functools import reduce
from itertools import combinations
from operator import or_

from coverkit.composition import composition_excess_witness, cut_compose
from coverkit.kernel import CapExceededError, Family, GroundMismatchError, matrix_plan
from coverkit.relations import one_exists


def subset_codes(n):
    return range(1 << n)


def bits_of(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_selections(n, members):
    """All codes meeting every member (scan, no tables)."""
    return [g for g in subset_codes(n) if all(g & f for f in members)]


def naive_supersets(n, members):
    return [g for g in subset_codes(n) if any(f & g == f for f in members)]


def wedge_mask(a_mask, b_mask):
    """The family mask of the pairwise unions of two families' members."""
    out = 0
    for f in bits_of(a_mask):
        for g in bits_of(b_mask):
            out |= 1 << (f | g)
    return out


def wedge(fam_a, fam_b):
    """Pairwise unions {F | G : F in fam_a, G in fam_b} of two families
    over one ground set, deduplicated."""
    if fam_a.ground != fam_b.ground:
        raise GroundMismatchError("operands live over different ground sets")
    return Family(fam_a.ground, wedge_mask(fam_a.mask, fam_b.mask))


class NaiveFamilyTables:
    """Selection and superset-closure of every family, by brute scans."""

    def __init__(self, n):
        self.n = n
        size = 1 << n
        self.sel = []
        self.sup = []
        for fam in range(1 << size):
            members = bits_of(fam)
            selm = 0
            for g in naive_selections(n, members):
                selm |= 1 << g
            supm = 0
            for g in naive_supersets(n, members):
                supm |= 1 << g
            self.sel.append(selm)
            self.sup.append(supm)


_tables_cache = {}


def family_tables(n):
    if n not in _tables_cache:
        _tables_cache[n] = NaiveFamilyTables(n)
    return _tables_cache[n]


# -- structural predicates ----------------------------------------------------

def naive_upper(n, rows):
    for f in subset_codes(n):
        for g in subset_codes(n):
            if rows[f] >> g & 1:
                for s in range(n):
                    if not rows[f] >> (g | 1 << s) & 1:
                        return False
    return True


def naive_lower(n, rows):
    for f in subset_codes(n):
        for g in subset_codes(n):
            if rows[f] >> g & 1:
                for s in range(n):
                    if not rows[f | 1 << s] >> g & 1:
                        return False
    return True


def naive_cut(n, rows):
    for f in subset_codes(n):
        for g in subset_codes(n):
            for s in range(n):
                if f >> s & 1:
                    continue
                if (rows[f | 1 << s] >> g & 1 and rows[f] >> (g | 1 << s) & 1
                        and not rows[f] >> g & 1):
                    return False
    return True


def naive_upper_witness(n_right, rows):
    """First (f, g, i), scanning f, then i, then g, with f related to g
    (g lacking i) but not to g + {i}; None when upper.  ``rows`` may have
    any number of rows: the left side plays no part."""
    for f in range(len(rows)):
        for i in range(n_right):
            for g in subset_codes(n_right):
                if (not g >> i & 1 and rows[f] >> g & 1
                        and not rows[f] >> (g | 1 << i) & 1):
                    return f, g, i
    return None


def naive_lower_witness(n_left, rows):
    """First (f, g, i), scanning f, then i (lacking from f), then g, with
    f related to g but f + {i} not; None when lower.  The right side
    enters only through the row masks."""
    for f in subset_codes(n_left):
        for i in range(n_left):
            if f >> i & 1:
                continue
            for g in bits_of(rows[f]):
                if not rows[f | 1 << i] >> g & 1:
                    return f, g, i
    return None


def naive_cut_witness(n, rows):
    """First (f, g, i), scanning f, then i (lacking from f), then g, with
    f + {i} related to g and f to g + {i} but f not to g; None when cut."""
    for f in subset_codes(n):
        for i in range(n):
            if f >> i & 1:
                continue
            for g in subset_codes(n):
                if (rows[f | 1 << i] >> g & 1 and rows[f] >> (g | 1 << i) & 1
                        and not rows[f] >> g & 1):
                    return f, g, i
    return None


def naive_one_reflexive(n, rows):
    return all(rows[1 << s] >> (1 << s) & 1 for s in range(n))


def naive_semicut(n, rows):
    for h in subset_codes(n):
        for g in subset_codes(n):
            if not rows[h] >> g & 1:
                continue
            for f in subset_codes(n):
                if rows[f] >> g & 1:
                    continue
                if all(rows[f] >> (g | 1 << s) & 1 for s in bits_of(h)):
                    return False
    return True


def naive_semicut_witness(n, rows):
    """The first (F, G, H) violating the semicut condition in (G, H, F)
    order, else None: H entails G, F entails G+{s} for every s in H, and
    F does not entail G."""
    for g in subset_codes(n):
        for h in subset_codes(n):
            if not rows[h] >> g & 1:
                continue
            for f in subset_codes(n):
                if rows[f] >> g & 1:
                    continue
                if all(rows[f] >> (g | 1 << s) & 1 for s in bits_of(h)):
                    return f, g, h
    return None


def table_semicut_witness(n, rows):
    """``naive_semicut_witness`` by one table per G, the form the package
    used before its walk over the least members: entry k of ``cand`` is
    the set of F entailing G+{h} for every h in the k-th H disjoint from
    G, built by doubling once per element outside G (3**n entries over
    all G), and H steps through the subsets of the complement of G in
    ascending order.  Within reach where the literal search is not."""
    size = 1 << n
    full = (1 << size) - 1
    cols = [sum(1 << f for f in subset_codes(n) if rows[f] >> g & 1)
            for g in subset_codes(n)]
    for g, col_g in enumerate(cols):
        if col_g == full:
            continue
        cand = [full]
        for i in range(n):
            if not g >> i & 1:
                ext = cols[g | 1 << i]
                cand += [c & ext for c in cand]
        free = (size - 1) ^ g
        h = 0
        for c in cand:
            bad = c & ~col_g
            if bad and col_g >> h & 1:
                return (bad & -bad).bit_length() - 1, g, h
            h = (h - free) & free  # the next subset of the complement of G
    return None


def naive_one_exists(n, rows):
    out = []
    for f in subset_codes(n):
        singles = [s for s in range(n) if rows[f] >> (1 << s) & 1]
        m = 0
        for g in subset_codes(n):
            if any(g >> s & 1 for s in singles):
                m |= 1 << g
        out.append(m)
    return out


def naive_vdash(n, rows):
    """Derived relation by the plain double quantifier."""
    size = 1 << n
    out = []
    for f in subset_codes(n):
        deps = [
            h for h in subset_codes(n)
            if all(rows[h] >> (1 << s) & 1 for s in bits_of(f))
        ]
        m = 0
        for g in subset_codes(n):
            if all(rows[h] >> g & 1 for h in deps):
                m |= 1 << g
        out.append(m)
    return out


# -- composition ---------------------------------------------------------------

def naive_compose_literal(n, rows_a, rows_b):
    """Cut-composition by enumerating left witness subfamilies outright.

    The right witness may always be taken maximal: enlarging it only
    grows its superset closure.  The left side is enumerated in full.
    """
    t = family_tables(n)
    size = 1 << n
    cols_b = [0] * size
    for g in subset_codes(n):
        for tcode in subset_codes(n):
            if rows_b[g] >> tcode & 1:
                cols_b[tcode] |= 1 << g
    out = []
    for r in subset_codes(n):
        fstar = bits_of(rows_a[r])
        m = 0
        for tcode in subset_codes(n):
            sup = t.sup[cols_b[tcode]]
            found = False
            for k in range(len(fstar) + 1):
                for combo in combinations(fstar, k):
                    fam = 0
                    for f in combo:
                        fam |= 1 << f
                    if t.sel[fam] & ~sup == 0:
                        found = True
                        break
                if found:
                    break
            if found:
                m |= 1 << tcode
        out.append(m)
    return out


def naive_compose_lower(n, rows_a, rows_b):
    """Composition via the maximal left witness, valid for lower rows_b."""
    t = family_tables(n)
    out = []
    for r in subset_codes(n):
        sel = t.sel[rows_a[r]]
        m = 0
        for tcode in subset_codes(n):
            if all(rows_b[g] >> tcode & 1 for g in bits_of(sel)):
                m |= 1 << tcode
        out.append(m)
    return out


def naive_compose_maximal(n, rows_a, rows_b):
    """Composition via the maximal witness pair, for any rows_b: r relates
    to t iff every selection of A*(r) contains a member of B*(t)."""
    out = []
    for r in subset_codes(n):
        sels = naive_selections(n, bits_of(rows_a[r]))
        m = 0
        for tcode in subset_codes(n):
            bstar = [g for g in subset_codes(n) if rows_b[g] >> tcode & 1]
            if all(any(h & sel == h for h in bstar) for sel in sels):
                m |= 1 << tcode
        out.append(m)
    return out


def naive_compose(n, rows_a, rows_b):
    if naive_lower(n, rows_b):
        return naive_compose_lower(n, rows_a, rows_b)
    return naive_compose_literal(n, rows_a, rows_b)


def _contained(rows_x, rows_y):
    return all(a & ~b == 0 for a, b in zip(rows_x, rows_y))


def naive_cut_transitive(n, rows):
    return _contained(naive_compose(n, rows, rows), rows)


def naive_divisible(n, rows):
    return _contained(rows, naive_compose(n, rows, naive_one_exists(n, rows)))


def naive_auxiliary(n, rows_a, rows_b):
    """rows_a auxiliary to rows_b, by the plain three-variable scan."""
    for f in subset_codes(n):
        for h in bits_of(rows_b[f]):
            for g in subset_codes(n):
                if rows_a[f] >> g & 1:
                    continue
                if all(rows_a[f | 1 << s] >> g & 1 for s in bits_of(h)):
                    return False
    return True


def naive_antisymmetric(n, rows):
    vd = naive_vdash(n, rows)
    for i in range(n):
        for j in range(i + 1, n):
            if vd[1 << i] >> (1 << j) & 1 and vd[1 << j] >> (1 << i) & 1:
                return False
    return True


def naive_classify(n, rows):
    upper = naive_upper(n, rows)
    lower = naive_lower(n, rows)
    monotone = upper and lower
    cut = naive_cut(n, rows)
    one_refl = naive_one_reflexive(n, rows)
    cut_trans = naive_cut_transitive(n, rows)
    divisible = naive_divisible(n, rows)
    strong = monotone and divisible and cut_trans
    cover = strong and naive_auxiliary(n, rows, naive_vdash(n, rows))
    return {
        "is_upper": upper,
        "is_lower": lower,
        "is_monotone": monotone,
        "is_cut": cut,
        "is_one_reflexive": one_refl,
        "is_entailment": monotone and cut,
        "is_scott": monotone and cut and one_refl,
        "is_cut_transitive": cut_trans,
        "is_semicut": naive_semicut(n, rows),
        "is_divisible": divisible,
        "is_strong_idempotent": strong,
        "is_cover": cover,
        "is_antisymmetric": naive_antisymmetric(n, rows),
    }


# -- naive tightness / space helpers ------------------------------------------

def naive_round(n, rows, t):
    return all(
        any(sub & t == sub and rows[sub] >> (1 << s) & 1 for sub in subset_codes(n))
        for s in bits_of(t)
    )


def naive_prime(n, rows, t):
    for f in subset_codes(n):
        if f & t != f:
            continue
        for g in subset_codes(n):
            if rows[f] >> g & 1 and g & t == 0:
                return False
    return True


def naive_tight_sets(n, rows):
    return [
        t for t in subset_codes(n)
        if t and naive_round(n, rows, t) and naive_prime(n, rows, t)
    ]


def naive_patch_opens(opens, saturated, full):
    """The closure of the opens, the complements of the saturated sets,
    the empty set and ``full`` under pairwise unions and intersections,
    by rescanning every pair until nothing is added."""
    family = {0, full} | set(opens) | {full & ~s for s in saturated}
    changed = True
    while changed:
        changed = False
        for a in sorted(family):
            for b in sorted(family):
                for c in (a | b, a & b):
                    if c not in family:
                        family.add(c)
                        changed = True
    return sorted(family)


def naive_covermask(subbasis, region):
    """Bit c is set iff the union of the subbasis members j with bit j of
    c set covers ``region``: the covering definition by a literal loop
    over every subfamily's union."""
    out = 0
    for c in range(1 << len(subbasis)):
        union = reduce(or_, (s for j, s in enumerate(subbasis) if c >> j & 1), 0)
        if region & ~union == 0:
            out |= 1 << c
    return out


# -- builders ------------------------------------------------------------------

def naive_meet(k, leq, members):
    """The greatest lower bound of ``members`` in the order on k elements
    where leq[i] is the mask of the j with i <= j, by a literal scan (the
    top for no members), or None."""
    lower = [x for x in range(k) if all(leq[x] >> m & 1 for m in members)]
    return next((x for x in lower if all(leq[y] >> x & 1 for y in lower)), None)


def naive_join(k, leq, members):
    """The least upper bound of ``members`` by a literal scan (the bottom
    for no members), or None."""
    upper = [x for x in range(k) if all(leq[m] >> x & 1 for m in members)]
    return next((x for x in upper if all(leq[x] >> y & 1 for y in upper)), None)


def naive_lattice_cover(k, leq):
    """Rows of the meet-below-join relation on a lattice of k elements,
    where leq[i] is the mask of the j with i <= j: F relates to G iff
    meet(F) <= join(G), by a literal scan over all pairs.  Meets and joins
    are found by scanning for the greatest lower and least upper bound, so
    the empty meet is the top and the empty join the bottom."""
    rows = []
    for f in subset_codes(k):
        m = naive_meet(k, leq, bits_of(f))
        row = 0
        for g in subset_codes(k):
            j = naive_join(k, leq, bits_of(g))
            if m is not None and j is not None and leq[m] >> j & 1:
                row |= 1 << g
        rows.append(row)
    return rows


def naive_semilattice_cover(k, leq):
    """Rows of the join-semilattice cover on k elements, where leq[i] is
    the mask of the j with i <= j: F relates to G iff every pair (p, q)
    with p <= x v q for every x in F has p <= join(G) v q, the join of
    the empty G being the bottom.  Joins by ``naive_join``; the pairs
    bound by each F and the join of each G are found once, and each
    (F, G) tests F's pairs one by one."""
    join = [[naive_join(k, leq, (x, q)) for q in range(k)] for x in range(k)]
    pairs = [(p, q) for p in range(k) for q in range(k)]
    bound_by = [[(p, q) for p, q in pairs
                 if all(leq[p] >> join[x][q] & 1 for x in bits_of(f))]
                for f in subset_codes(k)]
    joins = [naive_join(k, leq, bits_of(g)) for g in subset_codes(k)]
    return [sum(1 << g for g, j in enumerate(joins)
                if all(leq[p] >> join[j][q] & 1 for p, q in bound))
            for bound in bound_by]


def naive_perp_cover(k, lt):
    """Rows of the orthogonality cover of a transitive relation on k
    elements, where lt[i] is the mask of the j with i < j: F relates to G
    iff no common predecessor of F is orthogonal to every member of G,
    s and t orthogonal when no element lies below both.  The common
    predecessors of each F and the elements orthogonal to all of each G
    are scanned once, as masks, and each (F, G) tests that they miss."""
    below = [{i for i in range(k) if lt[i] >> j & 1} for j in range(k)]
    perp = [[not below[s] & below[t] for t in range(k)] for s in range(k)]
    common = [sum(1 << p for p in range(k) if all(lt[p] >> x & 1 for x in bits_of(f)))
              for f in subset_codes(k)]
    orth = [sum(1 << p for p in range(k) if all(perp[p][y] for y in bits_of(g)))
            for g in subset_codes(k)]
    return [sum(1 << g for g, o in enumerate(orth) if not c & o) for c in common]


def naive_proximity_cover(k, leq, prox):
    """Rows of the proximity cover on the lattice of k elements ordered by
    leq, with prox[i] the mask of the j with i < j in the proximity: F
    relates to G iff the meet of F (the top for no members) lies below
    the join of every proximal predecessor of a member of G (the bottom
    for none), tested pair by pair."""
    meets = [naive_meet(k, leq, bits_of(f)) for f in subset_codes(k)]
    joins = [naive_join(k, leq, [p for p in range(k)
                                 if any(prox[p] >> y & 1 for y in bits_of(g))])
             for g in subset_codes(k)]
    return [sum(1 << g for g, j in enumerate(joins) if leq[m] >> j & 1) for m in meets]


def naive_convexity_entailment(k, convex_sets):
    """Rows of the convexity entailment on k points: F relates to G iff
    their hulls, the intersections of the convex sets holding them,
    meet, tested pair by pair."""
    full = (1 << k) - 1
    hull = [reduce(lambda a, c: a & c, (c for c in convex_sets if f & ~c == 0), full)
            for f in subset_codes(k)]
    return [sum(1 << g for g in subset_codes(k) if hull[f] & hull[g])
            for f in subset_codes(k)]


def naive_frame_vdash_fields(fm, vdash_rows):
    """``vdash_matches_principal_order`` and ``entails_matches_way_below``
    of ``coverkit.frame.verify_frame_laws`` on a divisible system, by the
    per-pair loop over all (F, G): the meet of the principal quasi-ideals
    of F's members (an intersection of columns) against the join of G's
    (the F entailing every code that meets all members of those columns),
    by containment for the derived relation ``vdash_rows`` and by the
    model's way-below matrix for the relation."""
    sys = fm.system
    n = sys.ground.size
    rows = sys.rel.rows
    every = (1 << (1 << n)) - 1
    col = [sum(1 << f for f in subset_codes(n) if rows[f] >> (1 << i) & 1)
           for i in range(n)]
    sel = [sum(1 << c for c in subset_codes(n) if all(c & f for f in bits_of(col[i])))
           for i in range(n)]
    meets = [reduce(lambda a, c: a & c, (col[i] for i in bits_of(f)), every)
             for f in subset_codes(n)]
    joins = []
    for g in subset_codes(n):
        s = reduce(lambda a, c: a & c, (sel[i] for i in bits_of(g)), every)
        joins.append(sum(1 << h for h in subset_codes(n) if rows[h] & s == s))
    vdash_ok = entails_wb = True
    for f, m in enumerate(meets):
        for g, j in enumerate(joins):
            if (vdash_rows[f] >> g & 1) != (m & ~j == 0):
                vdash_ok = False
            if m in fm.index and j in fm.index:
                wb = fm.way_below_matrix[fm.index[m]] >> fm.index[j] & 1
            else:
                wb = 0
            if (rows[f] >> g & 1) != wb:
                entails_wb = False
    return vdash_ok, entails_wb


def way_below_directed(fm, q, r):
    """Lattice-theoretic approximation order, evaluated literally: for
    every directed set of quasi-ideals whose join dominates r, some
    member dominates q.  Exponential in the frame size; a test oracle."""
    k = len(fm.elements)
    if k > 14:
        raise CapExceededError("directed-join oracle gated to 14 frame elements")
    for dmask in range(1, 1 << k):
        members = [fm.elements[i] for i in bits_of(dmask)]
        directed = all(
            any(a & ~c == 0 and b & ~c == 0 for c in members)
            for a in members for b in members
        )
        if not directed:
            continue
        join = fm.join_union(reduce(or_, members, 0))
        if r & ~join == 0 and not any(q & ~c == 0 for c in members):
            return False
    return True


def _literal_downset(n, rows, fam):
    """The F entailing every code that meets all members of ``fam``."""
    members = bits_of(fam)
    sel = [g for g in subset_codes(n) if all(g & f for f in members)]
    return sum(1 << h for h in subset_codes(n) if all(rows[h] >> g & 1 for g in sel))


def upsets(n):
    """Every up-set of the subset lattice of an n-element ground set, as
    family masks in ascending order.

    These are exactly the selection families: the selections of a family
    form an up-set, and an up-set U is the selection family of the
    complements of the codes outside it.  An up-set is a union of the
    supersets of single codes, so the list grows by one union with each
    code.  There are 2, 3, 6, 20 and 168 of them for n = 0 .. 4 (the
    Dedekind numbers), against 2**(2**n) families."""
    out = {0}
    for x in subset_codes(n):
        up = sum(1 << g for g in naive_supersets(n, [x]))
        out |= {u | up for u in out}
    return tuple(sorted(out))


def naive_union_joins(sys):
    """The union-join law of ``coverkit.frame.verify_frame_laws`` by the
    literal search: D(U | V) == D(D(U) | D(V)) for every pair of families
    U, V, where D(U) is the set of F entailing every selection of U.
    Both sides read U and V only through their selection families, so
    the search runs over the unordered pairs of up-sets (``upsets``), the
    selection families; the selections of each downset are a scan."""
    n, rows = sys.ground.size, sys.rel.rows

    def down(sel):
        return sum(1 << h for h in subset_codes(n) if rows[h] & sel == sel)

    ups = upsets(n)
    pairs = [(u, sum(1 << g for g in naive_selections(n, bits_of(down(u)))))
             for u in ups]
    return all(down(u & v) == down(su & sv)
               for i, (u, su) in enumerate(pairs) for v, sv in pairs[i:])


def naive_quasi_ideals(n, rows):
    """Every quasi-ideal, ascending, by the literal per-family scan: the
    downset of each of the 2**(2**n) families (the F entailing every
    code that meets all its members), collected.  The selections are
    folded family by family (those of a family without its highest
    member, ANDed with the codes meeting that member)."""
    size = 1 << n
    meeting = [sum(1 << g for g in subset_codes(n) if g & f) for f in subset_codes(n)]
    sels = [(1 << size) - 1]
    for f in subset_codes(n):
        sels += [sel & meeting[f] for sel in sels]
    return sorted({
        sum(1 << h for h in subset_codes(n) if rows[h] & sel == sel) for sel in sels
    })


def principal_closure(n, rows):
    """The quasi-ideals generated by the principal ones, ascending: the
    downsets of the empty family, of the full family and of every
    singleton family, closed under binary meets (intersections) and
    joins (downsets of unions), a round at a time.  This reaches every
    quasi-ideal when the relation is divisible, since then the principal
    quasi-ideals generate the frame."""
    size = 1 << n
    meeting = [sum(1 << g for g in subset_codes(n) if g & f) for f in subset_codes(n)]

    def down(fam):
        sel = (1 << size) - 1
        for f in bits_of(fam):
            sel &= meeting[f]
        return sum(1 << h for h in subset_codes(n) if rows[h] & sel == sel)

    elements = {down(0), down((1 << size) - 1)} | {down(1 << f) for f in subset_codes(n)}
    frontier = set(elements)
    while frontier:
        new = set()
        for a in frontier:
            for b in elements:
                new |= {a & b, down(a | b)} - elements
        elements |= new
        frontier = new
    return sorted(elements)


def naive_karoubi_rows(fm):
    """Rows of the envelope relation, of sq and of sq_bar, as
    ``coverkit.frame.karoubi_envelope`` defines them, by the per-(s, g)
    loops: the meet and the join of every subset s of the frame folded
    from its lowest member (joins as literal downsets of unions), then
    bit g of a row tested one pair at a time."""
    els = fm.elements
    k = len(els)
    wb = fm.way_below_matrix
    n = fm.system.ground.size
    rows = fm.system.rel.rows
    index = {m: i for i, m in enumerate(els)}
    meet_idx = [index[els[-1]]] * (1 << k)
    join_idx = [index[els[0]]] * (1 << k)
    for s in range(1, 1 << k):
        low = bits_of(s)[0]
        rest = s ^ 1 << low
        meet_idx[s] = index[els[meet_idx[rest]] & els[low]]
        join_idx[s] = index[_literal_downset(n, rows, els[join_idx[rest]] | els[low])]
    principal_idx = [
        index[sum(1 << f for f in subset_codes(n) if rows[f] >> g & 1)]
        for g in subset_codes(n)
    ]
    env = [
        sum(1 << g for g in range(1 << k) if wb[meet_idx[s]] >> join_idx[g] & 1)
        for s in range(1 << k)
    ]
    sq = [
        sum(1 << g for g in subset_codes(n) if wb[meet_idx[s]] >> principal_idx[g] & 1)
        for s in range(1 << k)
    ]
    sq_bar = [
        sum(1 << g for g in range(1 << k) if els[join_idx[g]] >> f & 1)
        for f in subset_codes(n)
    ]
    return env, sq, sq_bar


def composition_cut_transitive_witness(rel):
    """First (r, t) in rel ; rel but not in rel, else None."""
    return composition_excess_witness(rel, rel, rel)


def composition_divisibility_witness(rel):
    """First (r, t) in rel but not in rel ; one_exists(rel), else None."""
    composed = cut_compose(rel, one_exists(rel))
    for r, (own, row) in enumerate(zip(rel.rows, composed.rows)):
        bad = own & ~row
        if bad:
            return r, (bad & -bad).bit_length() - 1
    return None


def vdash_antisymmetry_witness(sys, vdash):
    """First pair of distinct elements that the derived relation ``vdash``
    of ``sys`` identifies, else None."""
    n = sys.ground.size
    for i in range(n):
        for j in range(i + 1, n):
            ci, cj = 1 << i, 1 << j
            if vdash.rows[ci] >> cj & 1 and vdash.rows[cj] >> ci & 1:
                return sys.ground.names[i], sys.ground.names[j]
    return None


def angle_inverse_rows(rows, pres):
    """Rows of the angle inverse morphism by one bit test per (row,
    preimage) pair: row f has bit u iff f is related to ``pres[u]``."""
    out = []
    for own in rows:
        row = 0
        for u, pre in enumerate(pres):
            if own >> pre & 1:
                row |= 1 << u
        out.append(row)
    return out


def _scan_earlier(best, bad, i, s):
    """The first violation so far: ``best``, or (pos, i) for the lowest
    packed position of ``bad``; a later element is first only in a lower
    row."""
    pos = (bad & -bad).bit_length() - 1
    return (pos, i) if best is None or pos >> s < best[0] >> s else best


def scan_upper_witness(rel):
    """First (f, g, s) with f ~ g but not f ~ g+{s}: per element i, the
    violations (M << 2**i) & ~M on the columns with i."""
    s, _, rounds, _ = matrix_plan(rel.left.size, rel.right.size)
    w = 1 << s
    m = rel.packed
    best = None
    for i, (_, swap) in enumerate(rounds[:rel.right.size]):
        y = (m << (1 << i)) & (swap | swap << (w << i))
        bad = y ^ (y & m)
        if bad:
            best = _scan_earlier(best, bad, i, s)
            if best[0] < w:
                break
    if best is None:
        return None
    pos, i = best
    return pos >> s, (pos & (w - 1)) ^ 1 << i, rel.right.names[i]


def scan_lower_witness(rel):
    """First (f, g, s) with f ~ g but not f+{s} ~ g: per element i, the
    violations M & ~(M >> 2**(s+i)) on the rows lacking i."""
    s, _, rounds, _ = matrix_plan(rel.left.size, rel.right.size)
    w = 1 << s
    m = rel.packed
    best = None
    for i, (_, swap) in enumerate(rounds[:rel.left.size]):
        y = m & (swap | swap >> (1 << i))
        bad = y ^ (y & (m >> (w << i)))
        if bad:
            best = _scan_earlier(best, bad, i, s)
            if best[0] < w:
                break
    if best is None:
        return None
    pos, i = best
    return pos >> s, pos & (w - 1), rel.left.names[i]


def scan_cut_witness(rel):
    """First (F, G, s) with {s}+F ~ G and F ~ G+{s} but not F ~ G, on an
    endorelation: per element i, marked at (F, G | {i})."""
    n = rel.left.size
    s, _, rounds, _ = matrix_plan(n, n)
    w = 1 << s
    m = rel.packed
    best = None
    for i, (shift, swap) in enumerate(rounds):
        y = m & swap & (m >> shift)
        bad = y ^ (y & (m << (1 << i)))
        if bad:
            best = _scan_earlier(best, bad, i, s)
            if best[0] < w:
                break
    if best is None:
        return None
    pos, i = best
    return pos >> s, (pos & (w - 1)) ^ 1 << i, rel.left.names[i]
