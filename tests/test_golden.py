"""CLI stdout and exit codes, byte for byte, against committed reports.

``tests/golden/cases.json`` lists each case's argv (paths relative to the
repository root) and exit code, and ``tests/golden/<name>.out`` holds its
stdout.  The cases are every fixture under every report command, the
failing ``--require`` on M3, and ``compose`` of a generated morphism file
(``tests/golden/inputs/identity3.json``, the identity morphism of
``gen.random_strong_idempotent(gen.rng_for(7), gen.ground(3))``) with
itself, and ``frame`` and ``dualize`` of two explicit strong idempotents
beyond the fixtures' reach: ``strong3.json``
(``gen.random_strong_idempotent(gen.rng_for(1), gen.ground(3))``, a cover
with a 10-element frame) and ``strong4.json`` (``gen.rng_for(22)`` at
|S| = 4, a non-cover with a 6-element frame), and ``classify`` of an
explicit relation that fails most axioms: ``arbitrary3.json``
(``gen.random_relation(gen.rng_for(31), gen.ground(3))``), whose report
carries the upper, lower, cut, 1-reflexive, cut-transitive, divisible,
semicut and antisymmetric witnesses; and ``classify`` of a 14-element
chain lattice (``chain14.json``), one element past the ground-set limit,
which exits 3 with empty stdout; and ``classify`` of M3 topped by a
3-element chain (``m3chain8.json``, |S| = 8), a lower relation whose
report carries a semicut witness; and ``classify`` of three explicit
relations at |S| = 3 that sit between the levels of the axiom hierarchy:
``onerefl3.json`` (``gen.random_relation(gen.rng_for(0), gen.ground(3))``),
1-reflexive but not an entailment, with a cut-transitivity witness;
``entail3.json`` (``gen.random_monotone(gen.rng_for(1), gen.ground(3))``),
an entailment that is neither 1-reflexive nor divisible, with a
divisibility witness; and ``lowercut3.json`` (the lower closure,
``kernel.lower_closure_rows``, of ``gen.random_relation(gen.rng_for(22),
gen.ground(3))``), lower and cut but not upper; and three files that
exit 2 with empty stdout: ``nonutf8.json``, which opens with the bytes
0xff 0xfe and so is not UTF-8, ``deep2000.json``, arrays nested 2,000
deep, and ``classify`` of M3 with a ``--json`` path whose parent is a
file and so cannot be written; and two usage errors, which also exit 2
with empty stdout: ``frame`` with ``--require`` (only ``classify`` takes
it) and ``frame`` with ``--mode`` (no such option); and ``frame`` of a
6-element chain lattice (``chain6.json``), above |S| = 4, whose report
says ``"mode": "exhaustive"`` and ``"complete": true`` as at every
other size; and four more usage errors, exit 2 with empty stdout:
``--dot`` on ``classify``, ``dualize`` and ``compose`` (only ``spectrum``
and ``frame`` write a graph) and ``--seed`` (no command draws random
numbers, and every report says ``"seed": 0``); and four files, each
exit 2 with empty stdout, where a JSON string stands for a name list
and must not be read as the list of its characters: an explicit pair
side (``strpairs2.json``, the pair ``["ab", "a"]`` over ground a, b),
convexity ``convex_sets`` entries (``strconvex2.json``), topology
``opens`` and ``subbasis`` entries (``stropens2.json``) and the sides
of a morphism's pairs (``strmorphism3.json``, ``identity3.json`` with
each pair side joined into one string, under ``compose``); and every
report command on one input of each system kind that no fixture has:
``semilattice5.json`` (M3 as a join-semilattice), ``proximity3.json``
(the order proximity of a 3-element chain) and ``convexity3.json`` (the
segments of a 3-point line), each exit 0; and ``classify`` of a
13-element chain join-semilattice (``semichain13.json``, |S| = 13, the
ground-set limit), a cover.  Reports name their inputs by base name, so
the bytes do not depend on where the repository lives.

The reports were recorded before the one-pass front end (single read,
direct subset codes, hand-written JSON emitter) and must not change with
it.  Rewrite them only for a deliberate change of report format:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit.cli import _dumps, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
COMMANDS = ("classify", "spectrum", "frame", "dualize")


def _cases():
    fixtures = sorted(f for f in os.listdir(os.path.join(ROOT, "fixtures"))
                      if f.endswith(".json"))
    cases = [(f"{c}-{f[:-5]}", [c, f"fixtures/{f}"]) for f in fixtures for c in COMMANDS]
    cases.append(("classify-m3-require-cut",
                  ["classify", "fixtures/m3.json", "--require", "cut"]))
    morphism = "tests/golden/inputs/identity3.json"
    cases.append(("compose-identity3", ["compose", morphism, morphism]))
    for stem in ("strong3", "strong4"):
        path = f"tests/golden/inputs/{stem}.json"
        cases += [(f"{c}-{stem}", [c, path]) for c in ("frame", "dualize")]
    cases.append(("classify-arbitrary3",
                  ["classify", "tests/golden/inputs/arbitrary3.json"]))
    cases.append(("classify-chain14", ["classify", "tests/golden/inputs/chain14.json"]))
    cases.append(("classify-m3chain8", ["classify", "tests/golden/inputs/m3chain8.json"]))
    for stem in ("onerefl3", "entail3", "lowercut3", "nonutf8", "deep2000"):
        cases.append((f"classify-{stem}", ["classify", f"tests/golden/inputs/{stem}.json"]))
    cases.append(("classify-m3-json-unwritable",
                  ["classify", "fixtures/m3.json", "--json", "fixtures/m3.json/report.json"]))
    cases.append(("frame-meet2-require", ["frame", "fixtures/meet2.json", "--require", "cut"]))
    cases.append(("frame-meet2-mode", ["frame", "fixtures/meet2.json", "--mode", "generated"]))
    cases.append(("frame-chain6", ["frame", "tests/golden/inputs/chain6.json"]))
    morphism = "tests/golden/inputs/identity3.json"
    for name, argv in (("classify-m3-dot", ["classify", "fixtures/m3.json"]),
                       ("dualize-sierpinski-dot", ["dualize", "fixtures/sierpinski.json"]),
                       ("compose-identity3-dot", ["compose", morphism, morphism])):
        cases.append((name, argv + ["--dot", "x.dot"]))
    cases.append(("classify-m3-seed", ["classify", "fixtures/m3.json", "--seed", "1"]))
    for stem in ("strpairs2", "strconvex2", "stropens2"):
        cases.append((f"classify-{stem}", ["classify", f"tests/golden/inputs/{stem}.json"]))
    morphism = "tests/golden/inputs/strmorphism3.json"
    cases.append(("compose-strmorphism3", ["compose", morphism, morphism]))
    for stem in ("semilattice5", "proximity3", "convexity3"):
        path = f"tests/golden/inputs/{stem}.json"
        cases += [(f"{c}-{stem}", [c, path]) for c in COMMANDS]
    cases.append(("classify-semichain13", ["classify", "tests/golden/inputs/semichain13.json"]))
    return cases


def _run(argv):
    """Exit code and stdout of ``main`` on ``argv`` rooted at the repository."""
    argv = [os.path.join(ROOT, a) if a.endswith(".json") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _recorded():
    with open(os.path.join(GOLDEN, "cases.json")) as fh:
        return json.load(fh)


def test_golden_cases_cover_every_fixture_and_command():
    assert [(c["name"], c["argv"]) for c in _recorded()] == _cases()


def test_cli_stdout_and_exit_code_match_golden():
    for case in _recorded():
        code, out = _run(case["argv"])
        with open(os.path.join(GOLDEN, case["name"] + ".out")) as fh:
            expected = fh.read()
        assert code == case["exit"], case["name"]
        assert out == expected, case["name"]


json_text = st.text(st.characters(), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "☃", "\U0001f600", "\ud800"])
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | json_text
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_text, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(json_values)
def test_dumps_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_dumps_rejects_non_string_keys():
    for key in (1, None, True, (1, 2)):
        try:
            _dumps({key: 0})
        except TypeError:
            continue
        raise AssertionError(f"key {key!r} accepted")


if __name__ == "__main__":
    cases = []
    for name, argv in _cases():
        code, out = _run(argv)
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(out)
        cases.append({"name": name, "argv": argv, "exit": code})
    with open(os.path.join(GOLDEN, "cases.json"), "w") as fh:
        json.dump(cases, fh, indent=2)
        fh.write("\n")
