"""The four benchmark workloads: seeded inputs, pipelines and verdict checks.

Inputs are plain data (names, row masks, name lists, file payloads) made
from the seed before any timing starts; each pipeline turns one input
into one verdict through coverkit's public API, wrapping every call in a
tracer span named ``<layer>.<stage>``.  Checks run outside the timed
region.  The reasons behind each workload's shape are in README.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import combinations
from dataclasses import dataclass, field

from coverkit.kernel import CapExceededError, GroundSet, iter_bits, selections, supersets
from coverkit.relations import CoverSystem, Relation
from coverkit.composition import cut_compose
from coverkit.axioms import classify, derive_vdash
from coverkit.builders import FiniteLattice, lattice_cover, topology_cover
from coverkit.spectrum import (FiniteSpace, Spectrum, generated_opens, recovery,
                               verify_representation)
from coverkit.frame import frame_model, karoubi_envelope, verify_frame_laws, verify_open_iso
from coverkit.category import verify_duality_space, verify_duality_system
from coverkit.cli import main as cli_main

import gen
import oracles

NAMES = "abcdefghijklmnop"

# Per-layer stages, in layer order.  Every traced run reports all of them,
# with zeros for the stages a workload leaves idle.
STAGES = (
    "kernel.tables", "kernel.family_ops",
    "relations.relation", "relations.system",
    "axioms.classify", "axioms.classify_s4", "axioms.derive_vdash",
    "composition.cut_compose",
    "builders.lattice_cover", "builders.topology_cover",
    "spectrum.spectrum", "spectrum.verify_representation", "spectrum.recovery",
    "frame.frame_model", "frame.verify_frame_laws", "frame.verify_open_iso",
    "frame.karoubi_envelope",
    "category.verify_duality_system", "category.verify_duality_space",
    "cli.import", "cli.classify", "cli.spectrum", "cli.frame", "cli.dualize",
    "cli.compose",
)
LAYERS = ("kernel", "relations", "composition", "axioms", "builders",
          "spectrum", "frame", "category", "cli")
COUNTS = ("spectrum.tight_sets", "frame.elements", "frame.karoubi_refused",
          "axioms.classify_s4.refused")


@dataclass
class Item:
    kind: str
    data: object
    excluded: bool = False      # kept out of throughput, latency and ops counts
    expect: object = None       # the oracle's answer, made before timing


@dataclass
class Raised:
    """A pipeline that raised instead of returning a verdict."""

    error: str
    message: str

    def to_dict(self):
        return {"raised": self.error, "message": self.message}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=list)


# ---------------------------------------------------------------------------
# sweep: many tiny systems through Relation, CoverSystem and classify
# ---------------------------------------------------------------------------

class Sweep:
    """Arbitrary, monotone and Scott relations at |S| = 2-3, plus arbitrary
    relations at |S| = 4.

    The |S| = 4 relations are probes of a known defect: the README says a
    four-element system classifies, but every non-lower relation there
    raises CapExceededError.  They are timed as their own stage
    (``axioms.classify_s4``) and counted as ``refused``, outside the
    throughput, latency and operation counts, so that a fix reads as fewer
    refusals rather than as a slowdown.  If they ever return a verdict it
    is checked like any other.
    """

    name = "sweep"
    sizes = (2, 3, 4)
    repeat_check = False
    ROUND = (("arbitrary", 2), ("monotone", 2), ("scott", 2),
             ("arbitrary", 3), ("monotone", 3), ("scott", 3),
             ("arbitrary", 3), ("monotone", 3), ("scott", 3),
             ("arbitrary", 4))
    ROUNDS = 100

    def pool(self, rng, rounds=None):
        out = []
        for _ in range(rounds or self.ROUNDS):
            for kind, n in self.ROUND:
                ground = gen.ground(n)
                if kind == "arbitrary":
                    rel = gen.random_relation(rng, ground)
                elif kind == "monotone":
                    rel = gen.random_monotone(rng, ground)
                else:
                    rel = gen.random_scott(rng, ground).rel
                out.append(Item(f"{kind}{n}", (n, list(rel.rows)), excluded=n == 4))
        return out

    def run(self, item, tr):
        n, rows = item.data
        ground = GroundSet(tuple(NAMES[:n]))
        if item.excluded:
            return tr.call("axioms.classify_s4", _classify_rows, ground, rows)
        rel = tr.call("relations.relation", Relation, ground, ground, rows)
        sys = tr.call("relations.system", CoverSystem, ground, rel)
        return tr.call("axioms.classify", classify, sys, with_witnesses=True)

    def fingerprint(self, verdict):
        if isinstance(verdict, Raised):
            return _dumps(verdict.to_dict())
        return _dumps({"flags": verdict.to_dict(), "witnesses": verdict.witnesses})

    def expect(self, item):
        """naive_classify at |S| <= 3; at |S| = 4, where the literal oracle
        is out of reach, the naive structural scans."""
        n, rows = item.data
        return oracles.naive_classify(n, rows) if n <= 3 else structural_flags(n, rows)

    def check(self, item, verdict):
        n, rows = item.data
        if isinstance(verdict, Raised):
            if item.excluded and verdict.error == "CapExceededError":
                return "refused"
            return f"raised {verdict.error}"
        flags = verdict.to_dict()
        if n <= 3:
            return None if flags == item.expect else "differs from naive_classify"
        return check_flags(flags, item.expect)


def structural_flags(n, rows, compose=None):
    """The flags the naive scans reach at any size; ``compose``, the
    self-composition of a lower relation, adds cut-transitivity."""
    out = {
        "is_upper": oracles.naive_upper(n, rows),
        "is_lower": oracles.naive_lower(n, rows),
        "is_cut": oracles.naive_cut(n, rows),
        "is_one_reflexive": oracles.naive_one_reflexive(n, rows),
    }
    if compose is not None:
        out["is_cut_transitive"] = all(c & ~r == 0 for c, r in zip(compose, rows))
    return out


def check_flags(flags, expect):
    """None when ``flags`` agree with the naive scans in ``expect`` and keep
    the implications of the axiom hierarchy, else the reason."""
    if any(flags[k] != v for k, v in expect.items()):
        return "flags differ from the naive scans"
    f = flags
    implied = (
        f["is_monotone"] == (f["is_upper"] and f["is_lower"])
        and f["is_entailment"] == (f["is_monotone"] and f["is_cut"])
        and f["is_scott"] == (f["is_entailment"] and f["is_one_reflexive"])
        and f["is_strong_idempotent"] == (
            f["is_monotone"] and f["is_divisible"] and f["is_cut_transitive"])
        and (f["is_strong_idempotent"] or not f["is_cover"])
    )
    return None if implied else "flags break the axiom hierarchy"


def _classify_rows(ground, rows):
    return classify(CoverSystem(ground, Relation(ground, ground, rows)),
                    with_witnesses=True)


# ---------------------------------------------------------------------------
# lattice: few larger monotone systems built from lattice data
# ---------------------------------------------------------------------------

LATTICE_SIZE = 5


def _intersection_closed(gens, full):
    sets = {full, *gens}
    while True:
        more = {a & b for a in sets for b in sets} - sets
        if not more:
            return sets
        sets |= more


def _as_lattice(sets):
    """Name the members of an inclusion-ordered family and return
    (elements, covering pairs)."""
    names = [f"e{i}" for i in range(len(sets))]
    covers = [[names[i], names[j]]
              for i, a in enumerate(sets) for j, b in enumerate(sets)
              if a != b and a & b == a and not any(
                  c not in (a, b) and a & c == a and c & b == c for c in sets)]
    return names, covers


def _lattice_data(rng, sets):
    """The lattice of ``sets`` with its members named in a random order and
    its covering pairs listed in a random order."""
    sets = list(sets)
    rng.shuffle(sets)
    names, covers = _as_lattice(sets)
    rng.shuffle(covers)
    return names, covers


def chain_sets(rng, k):
    return [(1 << i) - 1 for i in range(k)]


def distributive_sets(rng, k):
    """The down-set lattice of a random poset with exactly k down-sets."""
    while True:
        m = rng.randint(3, 5)
        below = [0] * m
        for j in range(m):
            for i in range(j):
                if rng.random() < 0.4:
                    below[j] |= 1 << i | below[i]
        downsets = [s for s in range(1 << m)
                    if all(not s >> j & 1 or below[j] & ~s == 0 for j in range(m))]
        if len(downsets) == k:
            return downsets


def nondistributive_sets(rng, k):
    """A random intersection-closed family with k members that is not
    distributive as a lattice."""
    while True:
        m = rng.randint(3, 4)
        full = (1 << m) - 1
        sets = _intersection_closed(rng.sample(range(1, full), rng.randint(2, 5)), full)
        if len(sets) == k:
            sets = sorted(sets)
            if not FiniteLattice.from_pairs(*_as_lattice(sets)).is_distributive():
                return sets


def _lattice_system(elements, leq):
    return lattice_cover(FiniteLattice.from_pairs(elements, leq))


def _family_ops(sys):
    """Selections and supersets of every row family of the relation."""
    out = []
    for row in sys.rel.rows:
        fam = sys.ground.family_from_mask(row)
        out.append([selections(fam).mask, supersets(fam).mask])
    return out


def _codes(codes) -> int:
    return sum(1 << c for c in codes)


def naive_compose_lower(n, rows_a, rows_b):
    """``oracles.naive_compose_lower`` with each selection found by
    ``oracles.naive_selections``: its full family tables are out of reach
    above |S| = 4."""
    out = []
    for row in rows_a:
        sel = oracles.naive_selections(n, oracles.bits_of(row))
        out.append(_codes(t for t in oracles.subset_codes(n)
                          if all(rows_b[g] >> t & 1 for g in sel)))
    return out


class LatticeWorkload:
    """Chain, distributive and non-distributive lattices on five elements,
    from plain element and covering-pair data, through the O(4^n) paths."""

    name = "lattice"
    sizes = (LATTICE_SIZE,)
    repeat_check = False
    ROUND = ("chain", "distributive", "nondistributive")
    ROUNDS = 1
    MAKERS = {"chain": chain_sets, "distributive": distributive_sets,
              "nondistributive": nondistributive_sets}

    def pool(self, rng, rounds=None):
        shape = shapes(self.name)
        return [Item(kind, _lattice_data(rng, self.MAKERS[kind](shape, LATTICE_SIZE)))
                for _ in range(rounds or self.ROUNDS) for kind in self.ROUND]

    def run(self, item, tr):
        elements, leq = item.data
        sys = tr.call("builders.lattice_cover", _lattice_system, elements, leq)
        cls = tr.call("axioms.classify", classify, sys, with_witnesses=True)
        fam = tr.call("kernel.family_ops", _family_ops, sys)
        comp = tr.call("composition.cut_compose", cut_compose, sys.rel, sys.rel)
        vdash = tr.call("axioms.derive_vdash", derive_vdash, sys)
        spec = tr.call("spectrum.spectrum", Spectrum, sys)
        rep = tr.call("spectrum.verify_representation", verify_representation, sys)
        tr.count("spectrum.tight_sets", len(spec.tights))
        return {"rows": list(sys.rel.rows), "flags": cls.to_dict(),
                "witnesses": cls.witnesses, "family_ops": fam,
                "compose": list(comp.rows), "vdash": list(vdash.rows),
                "tights": list(spec.tights), "representation": rep.to_dict(),
                "violations": rep.violations()}

    def expect(self, item):
        """The naive oracles on the relation the builder makes: family
        operators, self-composition, derived relation, tight sets and the
        structural flags (naive_classify itself is out of reach at |S| = 5)."""
        sys = _lattice_system(*item.data)
        n, rows = sys.ground.size, list(sys.rel.rows)
        compose = naive_compose_lower(n, rows, rows)
        return {
            "rows": rows,
            "family_ops": [[_codes(oracles.naive_selections(n, oracles.bits_of(r))),
                            _codes(oracles.naive_supersets(n, oracles.bits_of(r)))]
                           for r in rows],
            "compose": compose,
            "vdash": oracles.naive_vdash(n, rows),
            "tights": oracles.naive_tight_sets(n, rows),
            "flags": structural_flags(n, rows, compose),
        }

    def fingerprint(self, verdict):
        return hashlib.sha256(_dumps(
            verdict.to_dict() if isinstance(verdict, Raised) else verdict
        ).encode()).hexdigest()

    def check(self, item, verdict):
        if isinstance(verdict, Raised):
            return f"raised {verdict.error}"
        for key, want in item.expect.items():
            if key == "flags":
                reason = check_flags(verdict["flags"], want)
                if reason:
                    return reason
            elif verdict[key] != want:
                return f"{key} differs from the naive oracle"
        return "representation violations" if verdict["violations"] else None


# ---------------------------------------------------------------------------
# duality: medium systems through the whole theory
# ---------------------------------------------------------------------------

# Systems whose quasi-ideal frame has 8 to 12 elements are skipped: the
# directed-join oracle in verify_frame_laws and the Karoubi envelope both
# cost about 2^k there.  Above 12 the envelope is refused and the oracle
# is skipped, so those systems stay in.
SLOW_FRAME_SIZES = range(8, 13)


def random_idempotent(shape, rng, n):
    """A strong idempotent drawn with ``shape``, relabelled with ``rng``."""
    ground = gen.ground(n)
    while True:
        sys = gen.random_strong_idempotent(shape, ground)
        if len(frame_model(sys)) not in SLOW_FRAME_SIZES:
            return list(ground.names), relabel_rows(rng, n, sys.rel.rows)


def random_space(shape, rng, points, opens):
    """A T0 space on ``points`` points with ``opens`` open sets, given by a
    subbasis of two open sets that cover it (so |S| = 2), drawn with
    ``shape``, its points relabelled with ``rng``."""
    choices = [(space, pair) for space in gen.all_t0_spaces(points)
               if len(space.opens) == opens
               for pair in combinations(space.opens, 2)
               if pair[0] | pair[1] == space.full_mask
               and generated_opens(points, pair) == frozenset(space.opens)]
    space, pair = shape.choice(choices)
    names = list(space.points)
    rng.shuffle(names)
    return (list(space.points),
            [[names[i] for i in iter_bits(o)] for o in space.opens],
            [[names[i] for i in iter_bits(s)] for s in pair])


def _space_system(points, opens, subbasis):
    space = FiniteSpace.from_named_sets(points, opens, subbasis)
    return space, topology_cover(space)


def _idempotent_system(names, rows):
    ground = GroundSet(tuple(names))
    return CoverSystem(ground, Relation(ground, ground, rows))


class DualityWorkload:
    """Strong idempotents at |S| = 2 and topology covers of T0 spaces on two
    and three points with a two-set subbasis, through classification,
    representation, frame, frame laws, open-set isomorphism, Karoubi
    envelope and duality.

    |S| = 2 keeps every input to a few milliseconds.  At |S| = 3 the
    union-join check in verify_frame_laws alone walks 256 x 256 families
    (about 0.25 s), and at |S| = 4 frame_model scans 65,536 families per
    build; runs of such inputs spread by more than a quarter on a shared
    host (see README.md).  Spaces are drawn per point and open-set count,
    which fixes the cost make-up of a pool.
    """

    name = "duality"
    sizes = (2,)
    repeat_check = False
    ROUND = (("idempotent", 2, None), ("space", 2, 3), ("idempotent", 2, None),
             ("space", 2, 4), ("idempotent", 2, None), ("space", 3, 5),
             ("idempotent", 2, None), ("idempotent", 2, None),
             ("idempotent", 2, None))
    ROUNDS = 1

    def pool(self, rng, rounds=None):
        shape = shapes(self.name)
        out = []
        for _ in range(rounds or self.ROUNDS):
            for kind, n, opens in self.ROUND:
                data = (random_idempotent(shape, rng, n) if kind == "idempotent"
                        else random_space(shape, rng, n, opens))
                out.append(Item(f"{kind}{n}", data))
        return out

    def run(self, item, tr):
        space = None
        if item.kind.startswith("space"):
            space, sys = tr.call("builders.topology_cover", _space_system, *item.data)
        else:
            names, rows = item.data
            ground = GroundSet(tuple(names))
            rel = tr.call("relations.relation", Relation, ground, ground, rows)
            sys = tr.call("relations.system", CoverSystem, ground, rel)
        cls = tr.call("axioms.classify", classify, sys, with_witnesses=True)
        rep = tr.call("spectrum.verify_representation", verify_representation, sys)
        fm = tr.call("frame.frame_model", frame_model, sys)
        tr.count("frame.elements", len(fm))
        laws = tr.call("frame.verify_frame_laws", verify_frame_laws, fm)
        iso = tr.call("frame.verify_open_iso", verify_open_iso, sys)
        try:
            env = tr.call("frame.karoubi_envelope", karoubi_envelope, sys)
            karoubi = env.to_dict()
        except CapExceededError:
            # documented refusal: the frame is larger than the envelope cap
            tr.count("frame.karoubi_refused")
            karoubi = {"refused": True, "violations": []}
        dual = tr.call("category.verify_duality_system", verify_duality_system, sys)
        verdict = {
            "flags": cls.to_dict(), "representation": rep.to_dict(),
            "frame_size": len(fm), "laws": laws.to_dict(), "open_iso": iso.to_dict(),
            "karoubi": karoubi, "duality_system": dual.to_dict(),
        }
        violations = rep.violations() + laws.violations() + iso.violations()
        violations += karoubi["violations"]
        if cls.is_cover:
            violations += dual.violations()
        if space is not None:
            rec = tr.call("spectrum.recovery", recovery, space)
            dsp = tr.call("category.verify_duality_space", verify_duality_space, space)
            verdict["recovery"] = rec.to_dict()
            verdict["duality_space"] = dsp.to_dict()
            violations += dsp.violations()
            if not rec.passed():
                violations.append("recovery failed")
        verdict["violations"] = violations
        return verdict

    fingerprint = LatticeWorkload.fingerprint

    def expect(self, item):
        """naive_classify on the system's relation."""
        if item.kind.startswith("space"):
            _, sys = _space_system(*item.data)
        else:
            sys = _idempotent_system(*item.data)
        return oracles.naive_classify(sys.ground.size, list(sys.rel.rows))

    def check(self, item, verdict):
        if isinstance(verdict, Raised):
            return f"raised {verdict.error}"
        if verdict["flags"] != item.expect:
            return "differs from naive_classify"
        return "theorem violations" if verdict["violations"] else None


# ---------------------------------------------------------------------------
# cli: the user's path, in-process
# ---------------------------------------------------------------------------

COMMANDS = ("classify", "spectrum", "frame", "dualize")

# ``frame`` on a strong idempotent with |S| >= 3 takes 0.2-0.4 s (the
# union-join check walks 256 x 256 families at |S| = 3, frame_model scans
# 65,536 families at |S| = 4), a hundred times a typical command.  Three
# such inputs made most of a pass and spread the runs on a shared host, so
# ``frame`` runs on the other systems only; the duality workload measures
# the frame layer.
SLOW_FRAME_FIXTURES = ("boolean4.json",)


def _explicit_payload(names, rows):
    n = len(names)

    def subset(code):
        return [names[i] for i in range(n) if code >> i & 1]

    pairs = [[subset(f), subset(g)] for f, row in enumerate(rows)
             for g in range(len(rows)) if row >> g & 1]
    return {"ground": list(names), "pairs": pairs}


@dataclass
class CliItem(Item):
    files: dict = field(default_factory=dict)   # file name -> JSON document


class CliWorkload:
    """``coverkit.cli.main(argv)`` in-process on the fixtures and on
    generated explicit and morphism files (``frame`` not on the strong
    idempotents with |S| >= 3, see SLOW_FRAME_FIXTURES).  Expected exit codes: 0 for
    every command, 1 for ``classify m3.json --require cut`` (M3 fails the
    cut rule) and 2 for a file with an unknown format version."""

    name = "cli"
    sizes = (2, 3, 4)
    repeat_check = True         # stdout must be byte-identical across repeats
    ROUND = (("monotone", 3), ("monotone", 4), ("idempotent", 3), ("idempotent", 4))
    ROUNDS = 1

    def __init__(self, root):
        self.root = root
        self.workdir = None

    def pool(self, rng, rounds=None):
        shape = shapes(self.name)
        fixtures = sorted(f for f in os.listdir(os.path.join(self.root, "fixtures"))
                          if f.endswith(".json"))
        out = [CliItem("fixture", ([c, os.path.join("fixtures", f)], 0))
               for f in fixtures for c in COMMANDS
               if not (c == "frame" and f in SLOW_FRAME_FIXTURES)]
        out.append(CliItem("fixture", (["classify", "fixtures/m3.json", "--require", "cut"], 1)))
        for r in range(rounds or self.ROUNDS):
            for kind, n in self.ROUND:
                if kind == "monotone":
                    rows = relabel_rows(rng, n, gen.random_monotone(shape, gen.ground(n)).rows)
                    names = list(gen.ground(n).names)
                else:
                    names, rows = random_idempotent(shape, rng, n)
                fname = f"{kind}{n}-{r:03d}.json"
                doc = {"format_version": "1", "kind": "explicit",
                       "payload": _explicit_payload(names, rows)}
                out += [CliItem(kind, ([c, fname], 0), files={fname: doc}) for c in COMMANDS
                        if not (c == "frame" and kind == "idempotent")]
                if kind == "idempotent" and n == 3:
                    mname = f"identity3-{r:03d}.json"
                    system = {"kind": "explicit", "payload": doc["payload"]}
                    mdoc = {"format_version": "1", "kind": "morphism",
                            "source_system": system, "target_system": system,
                            "pairs": doc["payload"]["pairs"]}
                    out.append(CliItem("compose", (["compose", mname, mname], 0),
                                       files={mname: mdoc}))
        bad = {"format_version": "0", "kind": "explicit",
               "payload": {"ground": ["a"], "pairs": []}}
        out.append(CliItem("malformed", (["classify", "malformed.json"], 2),
                           files={"malformed.json": bad}))
        return out

    def materialise(self, pool, workdir):
        """Write the generated files and point their argv at them."""
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        for item in pool:
            for fname, doc in item.files.items():
                with open(os.path.join(workdir, fname), "w") as fh:
                    json.dump(doc, fh)

    def _argv(self, item):
        argv, _ = item.data
        base = self.root if item.kind == "fixture" else self.workdir
        return [argv[0]] + [os.path.join(base, a) if a.endswith(".json") else a
                            for a in argv[1:]]

    def run(self, item, tr):
        import contextlib
        import io

        argv = self._argv(item)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.{argv[0]}", cli_main, argv)
        return {"exit": code, "stdout": out.getvalue()}

    fingerprint = LatticeWorkload.fingerprint

    def expect(self, item):
        return item.data[1]

    def check(self, item, verdict):
        if isinstance(verdict, Raised):
            return f"raised {verdict.error}"
        code = verdict["exit"]
        return None if code == item.expect else f"exit {code} != {item.expect}"


def shapes(name):
    """The stream that draws a workload's structures: the same for every
    seed, so that every seed runs inputs of the same cost.  The costs of
    lattice, frame and duality checks follow the structure (distributivity,
    frame size), and drawing structures from the seed made runs on
    different seeds differ by up to a quarter; the seed draws the labels."""
    return random.Random(f"{name}:shapes")


def relabel_rows(rng, n, rows):
    """The relation ``rows`` with its ground elements permuted at random."""
    perm = rng.sample(range(n), n)

    def image(code):
        return sum(1 << perm[i] for i in iter_bits(code))

    out = [0] * len(rows)
    for f, row in enumerate(rows):
        out[image(f)] = sum(1 << image(g) for g in iter_bits(row))
    return out


def make(name, root):
    return {"sweep": Sweep, "lattice": LatticeWorkload, "duality": DualityWorkload,
            "cli": lambda: CliWorkload(root)}[name]()


WORKLOADS = ("sweep", "lattice", "duality", "cli")


def seeded(seed, name):
    return random.Random(f"{name}:{seed}")
