import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import cli
from coverkit.cli import main, morphism_to_payload
from coverkit.builders import boolean4_lattice, lattice_cover, topology_cover, sierpinski_space
from coverkit.category import CoverMorphism, SpaceMap, ab_functor


BOOLEAN4 = {
    "format_version": "1",
    "kind": "lattice",
    "payload": {
        "name": "boolean4",
        "elements": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
    },
}

M3 = {
    "format_version": "1",
    "kind": "lattice",
    "payload": {
        "name": "m3",
        "elements": ["0", "x", "y", "z", "1"],
        "leq": [["0", "x"], ["0", "y"], ["0", "z"],
                 ["x", "1"], ["y", "1"], ["z", "1"]],
    },
}

SIERPINSKI = {
    "format_version": "1",
    "kind": "topology",
    "payload": {
        "name": "sierpinski",
        "points": ["x0", "x1"],
        "opens": [[], ["x1"], ["x0", "x1"]],
        "subbasis": [["x1"], ["x0", "x1"]],
    },
}


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_classify_boolean4(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    code, rep = run(capsys, "classify", path)
    assert code == 0
    assert rep["classification"]["is_scott"] is True
    assert rep["classification"]["is_cover"] is True


def test_require_failure_reports_witness(tmp_path, capsys):
    path = write(tmp_path, "m3.json", M3)
    code, rep = run(capsys, "classify", path, "--require", "entailment")
    assert code == 1
    assert rep["require"] == {"axiom": "entailment", "holds": False}
    assert set(rep["witnesses"]["cut"]) == {"F", "G", "s"}


def test_require_pass_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    code, rep = run(capsys, "classify", path, "--require", "cover")
    assert code == 0


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["classify", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["classify", str(missing)]) == 2
    wrong = write(tmp_path, "wrong.json", {"format_version": "1", "kind": "nope", "payload": {}})
    assert main(["classify", wrong]) == 2


def test_usage_errors_return_two_without_raising(capsys):
    fixture = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures", "meet2.json")
    assert main(["frame", fixture, "--mode", "x"]) == 2
    assert main(["classify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: coverkit" in captured.err
    assert main(["--help"]) == 0
    assert "usage: coverkit" in capsys.readouterr().out


def test_unexpected_error_exits_five_without_traceback(tmp_path, capsys, monkeypatch):
    # any other exception is an internal error: exit 5, one stderr line,
    # no traceback; an interrupt still propagates
    path = write(tmp_path, "b4.json", BOOLEAN4)

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "classify", boom)
    assert main(["classify", path]) == cli.EXIT_INTERNAL == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.COMMANDS, "classify", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["classify", path])


def test_cap_exceeded_exit_three(tmp_path, capsys):
    big = {
        "format_version": "1",
        "kind": "explicit",
        "payload": {"ground": [f"e{i}" for i in range(17)], "pairs": []},
    }
    path = write(tmp_path, "big.json", big)
    assert main(["classify", path]) == 3
    capsys.readouterr()
    # one past the limit; a 14-element chain used to pass the ground-set
    # cap and be refused by a second, matrix-size cap
    chain = [f"c{i}" for i in range(14)]
    chain14 = {
        "format_version": "1",
        "kind": "lattice",
        "payload": {"elements": chain, "leq": [list(p) for p in zip(chain, chain[1:])]},
    }
    assert main(["classify", write(tmp_path, "chain14.json", chain14)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ground set of size 14 exceeds cap 13" in captured.err


def test_classify_four_element_non_lower_exits_zero(tmp_path, capsys):
    # the empty set entails {a} but {b} does not: not lower, and four
    # elements used to exceed the gate of the literal composition search
    explicit = {
        "format_version": "1",
        "kind": "explicit",
        "payload": {"ground": ["a", "b", "c", "d"],
                    "pairs": [[[], ["a"]], [["a", "b"], ["c"]]]},
    }
    path = write(tmp_path, "four.json", explicit)
    code, rep = run(capsys, "classify", path)
    assert code == 0
    assert rep["classification"]["is_lower"] is False
    assert rep["classification"]["is_divisible"] is False
    assert set(rep["witnesses"]["lower"]) == {"F", "G", "s"}


def _explicit(ground):
    return {"format_version": "1", "kind": "explicit",
            "payload": {"ground": ground, "pairs": []}}


def test_integer_labels_exit_two_on_every_command(tmp_path, capsys):
    # integer labels used to pass classify and crash spectrum with exit 1
    path = write(tmp_path, "ints.json", _explicit([1, 2]))
    for command in ("classify", "spectrum"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ground must be a list of strings" in captured.err


def test_label_string_is_not_a_label_list(tmp_path, capsys):
    # "ab" used to be read as the labels ["a", "b"]
    path = write(tmp_path, "str.json", _explicit("ab"))
    assert main(["classify", path]) == 2
    assert "ground must be a list of strings" in capsys.readouterr().err
    lattice = {"format_version": "1", "kind": "lattice",
               "payload": {"elements": [0, 1], "leq": [[0, 1]]}}
    assert main(["classify", write(tmp_path, "lat.json", lattice)]) == 2
    assert "elements must be a list of strings" in capsys.readouterr().err
    space = json.loads(json.dumps(SIERPINSKI))
    space["payload"]["points"] = "x0"
    assert main(["dualize", write(tmp_path, "space.json", space)]) == 2
    assert "points must be a list of strings" in capsys.readouterr().err


def test_spectrum_command(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    dot = tmp_path / "spec.dot"
    code, rep = run(capsys, "spectrum", path, "--dot", str(dot))
    assert code == 0
    assert rep["tight_sets"] == [["a", "1"], ["b", "1"]]
    assert rep["representation"]["violations"] == []
    assert dot.read_text().startswith("digraph")


def test_frame_command(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    code, rep = run(capsys, "frame", path)
    assert code == 0
    assert rep["frame"]["size"] == 4
    assert rep["laws"]["violations"] == []


def test_dot_graph_built_only_with_dot_flag(tmp_path, capsys, monkeypatch):
    import coverkit.frame
    import coverkit.spectrum

    def refuse(*args):
        raise AssertionError("DOT graph built without --dot")

    path = write(tmp_path, "b4.json", BOOLEAN4)
    with monkeypatch.context() as patch:
        patch.setattr(coverkit.frame, "frame_hasse_dot", refuse)
        patch.setattr(coverkit.spectrum, "specialization_dot", refuse)
        assert main(["spectrum", path]) == 0
        assert main(["frame", path]) == 0
    dot = tmp_path / "hasse.dot"
    assert main(["frame", path, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("graph")


def test_spectrum_checks_the_space_properties_once(tmp_path, capsys, monkeypatch):
    # the report and verify_representation read the same spectrum space
    import coverkit.spectrum

    checked = []
    literal = coverkit.spectrum.space_properties

    def counted(space):
        checked.append(space)
        return literal(space)

    monkeypatch.setattr(coverkit.spectrum, "space_properties", counted)
    for data in (BOOLEAN4, M3, SIERPINSKI):
        checked.clear()
        code, rep = run(capsys, "spectrum", write(tmp_path, "in.json", data))
        assert code == 0 and "properties" in rep["space"]
        assert len(checked) == 1


def test_frame_command_reports_non_divisible(tmp_path, capsys):
    gap = {
        "format_version": "1",
        "kind": "explicit",
        "payload": {
            "ground": ["x", "p", "q"],
            "pairs": [],
        },
    }
    # build the interpolation-gap relation as explicit pairs
    from coverkit.builders import interpolation_gap_system

    sys = interpolation_gap_system()
    pairs = []
    for f, g in sys.rel.pairs():
        fn = [sys.ground.names[i] for i in _bits(f)]
        gn = [sys.ground.names[i] for i in _bits(g)]
        pairs.append([fn, gn])
    gap["payload"]["pairs"] = pairs
    path = write(tmp_path, "gap.json", gap)
    code, rep = run(capsys, "frame", path)
    assert code == 0  # reporting, not asserting
    assert rep["laws"]["divisible"] is False
    assert rep["laws"]["principal_joins_hold"] is False
    assert rep["laws"]["violations"] == []


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_frame_command_rejects_nothing_but_reports_non_cut_idempotent(tmp_path, capsys):
    path = write(tmp_path, "m3.json", M3)
    code, rep = run(capsys, "frame", path)
    assert code == 0
    assert rep["monotone_cut_idempotent"] is False


def test_dualize_command(tmp_path, capsys):
    path = write(tmp_path, "sier.json", SIERPINSKI)
    code, rep = run(capsys, "dualize", path)
    assert code == 0
    assert rep["violations"] == []
    assert rep["space_side"]["zigzag_space"] is True
    assert rep["system_side"]["zigzag_system"] is True


def test_dualize_classifies_a_topology_cover_once(capsys, monkeypatch):
    # the system side and the space side share the loaded cover system:
    # one classification for it, one for the abstracted spectrum system;
    # no system outlives its run, so a second in-process run classifies
    # its own two again
    from coverkit import axioms

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    classified = []
    inner = axioms._compute_classification

    def counted(sys):
        classified.append(sys)
        return inner(sys)

    monkeypatch.setattr(axioms, "_compute_classification", counted)
    for _ in range(2):
        classified.clear()
        assert main(["dualize", os.path.join(root, "fixtures", "sierpinski.json")]) == 0
        capsys.readouterr()
        assert len(classified) == 2


EMPTY_SPACE = {
    "format_version": "1",
    "kind": "topology",
    "payload": {"points": [], "opens": [[]], "subbasis": [[]]},
}


def test_dualize_empty_space(tmp_path, capsys):
    # the empty image is very dense in the empty spectrum: no violation
    path = write(tmp_path, "empty.json", EMPTY_SPACE)
    code, rep = run(capsys, "dualize", path)
    assert code == 0
    assert rep["violations"] == []


NON_T0 = {
    "format_version": "1",
    "kind": "topology",
    "payload": {"points": ["x", "y"], "opens": [[], ["x", "y"]],
                "subbasis": [["x", "y"]]},
}


def test_dualize_non_t0_space_exits_two(tmp_path, capsys):
    # used to end in a traceback (ValueError from recovery) and exit 1
    path = write(tmp_path, "nt0.json", NON_T0)
    for command in ("classify", "spectrum", "frame"):
        assert main([command, path]) == 0
    capsys.readouterr()
    assert main(["dualize", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires a T0 space" in captured.err


def _comma_space(opens, subbasis):
    return {"format_version": "1", "kind": "topology",
            "payload": {"points": ["a,b", "a", "b"], "opens": opens,
                        "subbasis": subbasis}}


# the subbasis members {"a,b"} and {"a", "b"} both joined to "{a,b}" once
COMMA_POINTS = _comma_space([[], ["a,b"], ["a", "b"], ["a,b", "a", "b"]],
                            [["a,b"], ["a", "b"]])
# the same with {"a"} added to opens and subbasis, which makes it T0
COMMA_POINTS_T0 = _comma_space(
    [[], ["a"], ["a,b"], ["a", "b"], ["a,b", "a"], ["a,b", "a", "b"]],
    [["a,b"], ["a", "b"], ["a"]])


def test_commas_in_point_names_keep_subbasis_labels_distinct(tmp_path, capsys):
    path = write(tmp_path, "commas.json", COMMA_POINTS)
    for command in ("classify", "spectrum"):
        assert main([command, path]) == 0
    assert "{a\\\\,b}" in capsys.readouterr().out
    # a and b lie in the same opens: dualize refuses for that, not for labels
    assert main(["dualize", path]) == 2
    assert "requires a T0 space" in capsys.readouterr().err
    path = write(tmp_path, "commas_t0.json", COMMA_POINTS_T0)
    for command in ("classify", "spectrum", "dualize"):
        code, rep = run(capsys, command, path)
        assert code == 0, command
    assert rep["violations"] == []


def test_subbasis_labels_escape_backslashes_and_commas():
    from coverkit.spectrum import FiniteSpace

    # the discrete space on these points, with the singletons and two
    # pairs for subbasis: unescaped, the labels {a,b} of one point and of
    # two collide, and so do {c\,d} of one point and of two
    names = ("a,b", "a", "b", "c\\", "c\\,d", "d")
    opens = [[n for i, n in enumerate(names) if m >> i & 1] for m in range(64)]
    subbasis = [[n] for n in names] + [["a", "b"], ["c\\", "d"]]
    labels = topology_cover(FiniteSpace.from_named_sets(names, opens, subbasis)).ground.names
    assert len(set(labels)) == len(labels) == 8
    assert {"{a\\,b}", "{a,b}", "{c\\\\}", "{c\\\\\\,d}", "{c\\\\,d}", "{a}", "{d}"} <= set(labels)


def _meeting(ground):
    """An explicit file on ``ground`` in which F entails G iff they meet."""
    subsets = [[x for i, x in enumerate(ground) if m >> i & 1]
               for m in range(1 << len(ground))]
    pairs = [[f, g] for i, f in enumerate(subsets)
             for j, g in enumerate(subsets) if i & j]
    return {"format_version": "1", "kind": "explicit",
            "payload": {"ground": ground, "pairs": pairs}}


def test_commas_in_element_names_keep_spectrum_points_distinct(tmp_path, capsys):
    # unescaped, the tight sets {"a,b"} and {"a", "b"} are both "{a,b}"
    path = write(tmp_path, "commas.json", _meeting(["a,b", "a", "b"]))
    code, rep = run(capsys, "spectrum", path)
    assert code == 0
    points = rep["space"]["points"]
    assert len(points) == len(set(points)) == len(rep["tight_sets"]) == 7
    assert {"{a\\,b}", "{a,b}"} <= set(points)


DOT_ID = r'"(?:[^"\\]|\\.)*"'
DOT_LINE = re.compile(rf"  ({DOT_ID})(?: (?:->|--) ({DOT_ID}))?;")


def _dot_nodes(text):
    """The node ids of a DOT graph, read back: each line between the
    header and the closing brace is one quoted node or one edge."""
    lines = text.splitlines()
    assert lines[0].endswith(" {") and lines[-1] == "}"
    nodes, ends = [], set()
    for line in lines[1:-1]:
        match = DOT_LINE.fullmatch(line)
        assert match, line
        ids = [re.sub(r"\\(.)", r"\1", g[1:-1]) for g in match.groups() if g]
        if len(ids) == 1:
            nodes += ids
        else:
            ends.update(ids)
    assert ends <= set(nodes)
    return nodes


def test_dot_ids_parse_back_to_their_labels(tmp_path, capsys):
    from coverkit.frame import frame_model
    from coverkit.kernel import GroundSet, iter_bits
    from coverkit.relations import CoverSystem, Relation
    from coverkit.spectrum import spectrum, subset_label

    names = ['a"b', "c\\", "d,e"]
    path = write(tmp_path, "quotes.json", _meeting(names))
    spec_dot, frame_dot = tmp_path / "spec.dot", tmp_path / "frame.dot"
    assert main(["spectrum", path, "--dot", str(spec_dot)]) == 0
    assert main(["frame", path, "--dot", str(frame_dot)]) == 0
    ground = GroundSet(names)
    sys = CoverSystem(ground, Relation.from_predicate(ground, ground,
                                                      lambda f, g: bool(f & g)))
    space = spectrum(sys).space
    assert _dot_nodes(spec_dot.read_text()) == list(space.points)
    assert '{a"b}' in space.points and "{c\\\\}" in space.points
    labels = ["[" + " ".join(subset_label(ground, f) for f in iter_bits(m)) + "]"
              for m in frame_model(sys).elements]
    assert _dot_nodes(frame_dot.read_text()) == labels


POINTS = ("x", "y", "z")


def _generated_opens(masks, full):
    """Unions of the non-empty finite intersections of ``masks``."""
    basics = set()
    for code in range(1, 1 << len(masks)):
        inter = full
        for i, m in enumerate(masks):
            if code >> i & 1:
                inter &= m
        basics.add(inter)
    opens = {0}
    for b in basics:
        opens |= {o | b for o in opens}
    return opens


def _subsets(ground):
    """Label lists of subsets of ``ground``, repeats allowed."""
    return st.lists(st.sampled_from(ground), max_size=3) if ground else st.just([])


@st.composite
def topology_files(draw):
    """Topology payloads on at most three points with an arbitrary subbasis
    list; the opens are the ones it generates, or an arbitrary list."""
    points = POINTS[:draw(st.integers(0, 3))]
    subset = _subsets(points)
    subbasis = draw(st.lists(subset, max_size=3))
    if draw(st.booleans()):
        index = {p: i for i, p in enumerate(points)}
        masks = [sum(1 << index[p] for p in set(s)) for s in subbasis]
        opens = [[p for i, p in enumerate(points) if o >> i & 1]
                 for o in sorted(_generated_opens(masks, (1 << len(points)) - 1))]
    else:
        opens = draw(st.lists(subset, max_size=6))
    return {"format_version": "1", "kind": "topology",
            "payload": {"points": list(points), "opens": opens, "subbasis": subbasis}}


@st.composite
def explicit_payloads(draw):
    """Explicit payloads on at most three elements with arbitrary pairs."""
    ground = ["a", "b", "c"][:draw(st.integers(0, 3))]
    pairs = draw(st.lists(st.lists(_subsets(ground), min_size=2, max_size=2),
                          max_size=16))
    return {"ground": ground, "pairs": pairs}


def explicit_files():
    """Explicit system files of ``explicit_payloads``."""
    return explicit_payloads().map(lambda payload: {
        "format_version": "1", "kind": "explicit", "payload": payload})


@st.composite
def morphism_files(draw):
    """Two morphism files, A -> B and B -> A, between explicit systems on
    at most three elements, with arbitrary pairs."""
    a, b = draw(explicit_payloads()), draw(explicit_payloads())

    def morphism(src, tgt):
        pairs = draw(st.lists(st.tuples(_subsets(src["ground"]),
                                        _subsets(tgt["ground"])).map(list),
                              max_size=16))
        return {"format_version": "1", "kind": "morphism",
                "source_system": {"kind": "explicit", "payload": src},
                "target_system": {"kind": "explicit", "payload": tgt},
                "pairs": pairs}

    return morphism(a, b), morphism(b, a)


def _nested(depth):
    return b"[" * depth + b"]" * depth


# raw bytes that are no JSON object: UTF-16 text (not UTF-8), bytes after
# an 0xff (never in UTF-8), and arrays or objects nested up to 3,000 deep
raw_files = st.one_of(
    st.one_of(topology_files(), explicit_files()).map(
        lambda data: json.dumps(data).encode("utf-16")),
    st.binary(max_size=8).map(lambda tail: b"\xff" + tail),
    st.integers(1, 3000).map(_nested),
    st.integers(1, 3000).map(lambda depth: b'{"a": ' * depth + b"0" + b"}" * depth),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(topology_files(), explicit_files(), raw_files, morphism_files()),
       st.booleans())
@example(NON_T0, False)
@example(b"\xff\xfe{}", False)
@example(_nested(2000), False)
def test_every_command_exits_with_a_documented_code(data, unwritable):
    # without --require, every input ends in 0, 2 (parse), 3 (cap) or 4
    # (theorem), never in an exception or exit 1; with a --json path that
    # cannot be written, in 2, or in 3 when a cap stops it before any output
    with tempfile.TemporaryDirectory() as tmp:
        def save(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            return path

        if isinstance(data, tuple):
            m1, m2 = save("m1.json", data[0]), save("m2.json", data[1])
            runs = [["compose", m1, m2], ["compose", m2, m1]]
        else:
            path = save("input.json", data)
            runs = [[c, path] for c in ("classify", "spectrum", "frame", "dualize")]
        extra, allowed = [], (0, 2, 3, 4)
        if unwritable:
            extra, allowed = ["--json", os.path.join(tmp, "missing", "report.json")], (2, 3)
        for argv in runs:
            assert main(argv + extra) in allowed, (argv, data)


def test_compose_command(tmp_path, capsys):
    m = ab_functor(SpaceMap.identity(sierpinski_space()))
    mfile = write(tmp_path, "m.json", morphism_to_payload(m))
    code, rep = run(capsys, "compose", mfile, mfile)
    assert code == 0
    assert rep["first_is_morphism"] and rep["composite_is_morphism"]
    assert rep["composite"]["pairs"] == morphism_to_payload(m)["pairs"]


def test_compose_over_non_lower_systems_reports(tmp_path, capsys):
    # a non-lower system relation used to make the morphism check raise
    # ValueError, which surfaced as a traceback
    system = {"kind": "explicit",
              "payload": {"ground": ["a", "b"], "pairs": [[[], ["a"]]]}}
    morphism = {"format_version": "1", "kind": "morphism",
                "source_system": system, "target_system": system, "pairs": []}
    mfile = write(tmp_path, "m.json", morphism)
    code, rep = run(capsys, "compose", mfile, mfile)
    assert code == 0
    assert rep["first_is_morphism"] == rep["composite_is_morphism"]
    assert rep["composite"]["pairs"] == []


AB_SYSTEM = {"kind": "explicit",
             "payload": {"ground": ["a", "b"], "pairs": [[["a"], ["a"]]]}}


def _bad_element_files(element):
    """Files with ``element`` in place of a label: in a pair of an explicit
    system file, of a morphism's source system, and of a morphism."""
    pair = [["a"], ["b", element]]
    system = {"kind": "explicit",
              "payload": {"ground": ["a", "b"], "pairs": [[["a"], ["a"]], pair]}}
    return {
        "system.json": dict(system, format_version="1"),
        "in_system.json": {"format_version": "1", "kind": "morphism",
                           "source_system": system, "target_system": AB_SYSTEM,
                           "pairs": []},
        "in_pairs.json": {"format_version": "1", "kind": "morphism",
                          "source_system": AB_SYSTEM, "target_system": AB_SYSTEM,
                          "pairs": [pair]},
    }


def _exits(tmp_path, capsys, element):
    """(file, exit code, stderr) of every command on each bad-element file."""
    out = []
    for name, data in _bad_element_files(element).items():
        path = write(tmp_path, name, data)
        commands = (["compose", path, path],) if name != "system.json" else (
            [c, path] for c in ("classify", "spectrum", "frame", "dualize"))
        for argv in commands:
            code = main(argv)
            captured = capsys.readouterr()
            assert captured.out == ""
            out.append((name, code, captured.err))
    return out


def test_unknown_element_exits_two_naming_it(tmp_path, capsys):
    results = _exits(tmp_path, capsys, "zebra")
    assert len(results) == 6
    for name, code, err in results:
        assert code == 2, name
        assert "'zebra' is not an element" in err, (name, err)


def test_unhashable_element_exits_two(tmp_path, capsys):
    for element in (["b"], {"b": 1}):
        for name, code, err in _exits(tmp_path, capsys, element):
            assert code == 2, (name, element)
            assert err.startswith("error: "), err


def test_compose_mismatch_is_parse_error(tmp_path, capsys):
    sys_sier = topology_cover(sierpinski_space())
    sys_b4 = lattice_cover(boolean4_lattice())
    m1 = CoverMorphism.identity(sys_sier)
    m2 = CoverMorphism.identity(sys_b4)
    f1 = write(tmp_path, "m1.json", morphism_to_payload(m1))
    f2 = write(tmp_path, "m2.json", morphism_to_payload(m2))
    assert main(["compose", f1, f2]) == 2


def test_outputs_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    for cmd in (["classify", path], ["spectrum", path], ["frame", path],
                ["dualize", path]):
        main(cmd)
        first = capsys.readouterr().out
        main(cmd)
        second = capsys.readouterr().out
        assert first == second and first


def test_json_file_output_matches_stdout(tmp_path, capsys):
    path = write(tmp_path, "b4.json", BOOLEAN4)
    out = tmp_path / "rep.json"
    main(["classify", path, "--json", str(out)])
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
