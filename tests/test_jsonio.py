"""JSON input files through ``cli.main``: exit codes and error lines; and
round trips of graphs and automorphisms through their JSON objects."""

import contextlib
import io
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerspine import (
    Automorphism,
    RationalCurrent,
    Word,
    cli,
    compose,
    cyclic_reduce,
    elementary_automorphisms,
    invert,
    candidates,
    jsonio,
    transform,
    unit_rose,
)
from outerspine.graphs import Edge, _Graph, _shape
from outerspine.sampling import random_automorphism, spine_points

from oracles import o_bfs_tree

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
ROSE = os.path.join(DATA, "rose3.json")
TRIBONACCI = os.path.join(DATA, "tribonacci.json")
# five petals, one past the generator letters a-d
with open(os.path.join(os.path.dirname(__file__), "data", "rank5.json")) as fh:
    RANK5 = json.load(fh)
GRAPH = {
    "format": 1, "rank": 3, "basepoint": "v",
    "edges": [{"id": k, "from": "v", "to": "v", "length": 1} for k in "abc"],
    "marking": {k: [k + "+"] for k in "abc"},
}


def run(tmp_path, capsys, obj, argv):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    rc = cli.main([str(path) if a == "INPUT" else a for a in argv])
    return rc, capsys.readouterr().err


def assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_invert_move_needs_no_partner(tmp_path, capsys):
    obj = {"format": 1, "rank": 3, "moves": [{"kind": "invert", "target": "a"}]}
    rc, err = run(tmp_path, capsys, obj, ["iwip", "--phi", "INPUT", "--k", "3"])
    assert rc == 0
    assert err == ""


def test_transpose_without_partner_exits_2(tmp_path, capsys):
    obj = {"format": 1, "rank": 3, "moves": [{"kind": "transpose", "target": "a"}]}
    rc, err = run(tmp_path, capsys, obj, ["iwip", "--phi", "INPUT", "--k", "3"])
    assert rc == 2
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["systole", "--graph", "INPUT"],
        ["iwip", "--phi", "INPUT", "--k", "3"],
        ["pair", "--tree", ROSE, "--current", "INPUT"],
    ],
    ids=["graph", "automorphism", "current"],
)
def test_top_level_array_exits_2(tmp_path, capsys, argv):
    rc, err = run(tmp_path, capsys, [1, 2], argv)
    assert rc == 2
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "obj, argv",
    [
        ({"format": 1, "rank": 3, "moves": ["a"]}, ["iwip", "--phi", "INPUT", "--k", "3"]),
        ({**GRAPH, "edges": [1]}, ["systole", "--graph", "INPUT"]),
        ({**GRAPH, "marking": {"a": [5], "b": ["b+"], "c": ["c+"]}}, ["systole", "--graph", "INPUT"]),
        ({"format": 1, "rank": 3, "atoms": "ab"}, ["pair", "--tree", ROSE, "--current", "INPUT"]),
        (
            {"format": 1, "rank": 3, "moves": [{"kind": "invert", "target": ""}]},
            ["iwip", "--phi", "INPUT", "--k", "3"],
        ),
        (
            {"format": 1, "rank": 3, "moves": [{"kind": "transpose", "target": "a", "by": "bc"}]},
            ["iwip", "--phi", "INPUT", "--k", "3"],
        ),
    ],
    ids=["move", "edge", "marking-step", "atoms", "empty-target", "two-letter-by"],
)
def test_wrong_inner_type_exits_2(tmp_path, capsys, obj, argv):
    rc, err = run(tmp_path, capsys, obj, argv)
    assert rc == 2
    assert_one_error_line(err)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({**GRAPH, "basepoint": "w"}, "error: basepoint 'w' is not a vertex\n"),
        (
            {**GRAPH, "marking": {"a": ["a+"], "b": ["e9+"], "c": ["c+"]}},
            "error: marking of 'b' steps on unknown edge 'e9'\n",
        ),
        (RANK5, "error: rank must be between 2 and 4, got 5\n"),
        ({**GRAPH, "rank": 1}, "error: rank must be between 2 and 4, got 1\n"),
        (
            {**GRAPH, "edges": GRAPH["edges"] + GRAPH["edges"][:1]},
            "error: edge 'a' is listed twice\n",
        ),
        (
            {**GRAPH, "marking": {**GRAPH["marking"], "d": ["a+"]}},
            "error: marking key 'd' is not a generator of rank 3\n",
        ),
    ],
    ids=["basepoint", "marking-edge", "rank-five", "rank-one", "repeated-edge", "marking-key"],
)
def test_graph_names_what_is_wrong(tmp_path, capsys, obj, message):
    assert run(tmp_path, capsys, obj, ["systole", "--graph", "INPUT"]) == (2, message)


CURRENT_B = os.path.join(DATA, "current_b.json")


def with_weight(weight):
    return {"format": 1, "rank": 3, "atoms": [{"class": "a b", "weight": weight}]}


def with_length(length):
    return {**GRAPH, "edges": [{**GRAPH["edges"][0], "length": length}, *GRAPH["edges"][1:]]}


@pytest.mark.parametrize(
    "obj, argv",
    [
        (with_weight("inf"), ["pair", "--tree", ROSE, "--current", "INPUT"]),
        (with_weight("nan"), ["pair", "--tree", ROSE, "--current", "INPUT"]),
        (with_weight("inf"), ["min", "--mu", "INPUT", "--nu", CURRENT_B]),
        (with_weight(1e308), ["min", "--mu", "INPUT", "--nu", CURRENT_B, "--s", "1"]),
        (with_length("nan"), ["systole", "--graph", "INPUT"]),
        (with_length("inf"), ["systole", "--graph", "INPUT"]),
    ],
    ids=["pair-inf-weight", "pair-nan-weight", "min-inf-weight", "min-weight-overflows",
         "systole-nan-length", "systole-inf-length"],
)
def test_non_finite_number_exits_2(tmp_path, capsys, obj, argv):
    rc, err = run(tmp_path, capsys, obj, argv)
    assert rc == 2
    assert_one_error_line(err)


def _drop(key):
    return lambda g: {k: v for k, v in g.items() if k != key}


def _set(key, value):
    return lambda g: {**g, key: value}


def _first_edge(edit):
    return lambda g: {**g, "edges": [edit(g["edges"][0]), *g["edges"][1:]]}


def _marking(**paths):
    return lambda g: {**g, "marking": {**g["marking"], **paths}}


def _subdivide(g):
    """Edge a, a loop at v, as a+ then a new edge a2 through a valence-2 w."""
    a = g["edges"][0]
    edges = [{**a, "to": "w"}, {**a, "id": "a2", "from": "w"}, *g["edges"][1:]]
    marking = {**g["marking"], "a": ["a+", "a2+"]}
    return {**g, "edges": edges, "marking": marking, "vertices": ["v", "w"]}


def _island(g):
    """One more edge, a loop at a vertex x that nothing else reaches."""
    edges = [*g["edges"], {"id": "z", "from": "x", "to": "x", "length": "0.5"}]
    return {**g, "edges": edges, "vertices": ["v", "x"]}


GRAPH_MUTATIONS = {
    **{f"drop-{key}": _drop(key) for key in ("rank", "edges", "basepoint", "marking")},
    **{f"drop-edge-{key}": _first_edge(_drop(key)) for key in ("id", "from", "to", "length")},
    "type-rank": _set("rank", [3]),
    "type-edges": _set("edges", {"a": 1}),
    "type-basepoint": _set("basepoint", 1),
    "type-marking": _set("marking", [["a+"]]),
    "type-vertices": _set("vertices", "v"),
    "type-edge-id": _first_edge(_set("id", 1)),
    "type-edge-to": _first_edge(_set("to", ["v"])),
    "type-edge-length": _first_edge(_set("length", [1])),
    "type-marking-path": _marking(a="a+"),
    "rank-down": lambda g: {**g, "rank": g["rank"] - 1},
    "rank-up": lambda g: {**g, "rank": g["rank"] + 1},
    "repeated-edge": lambda g: {**g, "edges": [*g["edges"], g["edges"][0]]},
    "unknown-edge": _marking(b=["b+", "z+"]),
    "loop-twice": lambda g: _marking(c=g["marking"]["b"])(g),
    "valence-two": _subdivide,
    "disconnected": _island,
    "negative-length": _first_edge(_set("length", "-0.5")),
    "nan-length": _first_edge(_set("length", "nan")),
    "inf-length": _first_edge(_set("length", "inf")),
}
# what the error line says, for the mutations whose message is pinned
GRAPH_ERRORS = {
    **{
        f"drop-{key}": f"graph file lacks key {key!r}"
        for key in ("rank", "edges", "basepoint", "marking")
    },
    **{
        f"drop-edge-{key}": f"edge 0 of 'edges' lacks key {key!r}"
        for key in ("id", "from", "to", "length")
    },
    "loop-twice": "the marking loops of the graph are not a basis of F_3",
}
GRAPH_FILES = {name: os.path.join(DATA, name) for name in ("rose3.json", "rose_half_quarter.json")}
GRAPH_COMMANDS = {
    "systole": ["systole", "--graph", "INPUT"],
    "dist-from": ["dist", "--from", "INPUT", "--to", ROSE],
    "dist-to": ["dist", "--from", ROSE, "--to", "INPUT", "--sym"],
}


@pytest.mark.parametrize("command", sorted(GRAPH_COMMANDS))
@pytest.mark.parametrize("mutation", sorted(GRAPH_MUTATIONS))
@pytest.mark.parametrize("base", sorted(GRAPH_FILES))
def test_malformed_graph_file_exits_2(tmp_path, capsys, base, mutation, command):
    """Each bundled rose, broken one way: it exits 2 with one error line
    and no traceback, wherever a graph file is read."""
    with open(GRAPH_FILES[base]) as fh:
        obj = GRAPH_MUTATIONS[mutation](json.load(fh))
    rc, err = run(tmp_path, capsys, obj, GRAPH_COMMANDS[command])
    assert rc == 2
    assert_one_error_line(err)
    assert GRAPH_ERRORS.get(mutation, "") in err


PHI_INPUT = ["iwip", "--phi", "INPUT"]
CURRENT_INPUT = ["pair", "--tree", ROSE, "--current", "INPUT"]
MISSING_KEYS = {  # (file, where it is read, what the error line says)
    "phi-rank": ({"images": ["b", "c", "a b"]}, PHI_INPUT, "automorphism file lacks key 'rank'"),
    "move-kind": (
        {"rank": 3, "moves": [{"target": "a"}]}, PHI_INPUT, "move 0 of 'moves' lacks key 'kind'"
    ),
    "move-target": (
        {"rank": 3, "moves": [{"kind": "invert"}]}, PHI_INPUT, "move 0 of 'moves' lacks key 'target'"
    ),
    "current-atoms": ({"rank": 3}, CURRENT_INPUT, "current file lacks key 'atoms'"),
    "atom-class": (
        {"atoms": [{"weight": 1}]}, CURRENT_INPUT, "atom 0 of 'atoms' lacks key 'class'"
    ),
    "atom-weight": (
        {"atoms": [{"class": "a"}]}, CURRENT_INPUT, "atom 0 of 'atoms' lacks key 'weight'"
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_KEYS))
def test_missing_key_is_named(tmp_path, capsys, case):
    obj, argv, message = MISSING_KEYS[case]
    rc, err = run(tmp_path, capsys, obj, argv)
    assert rc == 2
    assert_one_error_line(err)
    assert message in err


@given(st.sampled_from(sorted(GRAPH_FILES)), st.sampled_from(sorted(GRAPH_COMMANDS)), st.data())
@settings(max_examples=40, deadline=None)
def test_truncated_graph_file_exits_2(tmp_path_factory, base, command, data):
    """Every proper prefix of a bundled rose's text is malformed JSON."""
    with open(GRAPH_FILES[base]) as fh:
        text = fh.read().rstrip()
    path = tmp_path_factory.mktemp("cut") / "input.json"
    path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(path) if a == "INPUT" else a for a in GRAPH_COMMANDS[command]])
    assert rc == 2
    assert_one_error_line(err.getvalue())


def test_non_basis_images_exit_2(tmp_path, capsys):
    obj = {"format": 1, "rank": 3, "images": ["a", "b", "a b a"]}
    rc, err = run(tmp_path, capsys, obj, ["iwip", "--phi", "INPUT", "--k", "3"])
    assert rc == 2
    assert_one_error_line(err)


def test_images_form_runs_iwip_like_moves_form(tmp_path, capsys):
    path = tmp_path / "images.json"
    path.write_text(json.dumps({"format": 1, "rank": 3, "images": ["b", "c", "a b"]}))
    bodies = []
    for phi in (str(path), TRIBONACCI):
        assert cli.main(["iwip", "--phi", phi, "--k", "6", "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        body = json.loads(out)
        assert body["config"].pop("inputs") == [phi]
        bodies.append(body)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("k, rc", [(-1, 2), (0, 0)])
def test_iwip_k_bounds(capsys, k, rc):
    assert cli.main(["iwip", "--phi", TRIBONACCI, "--k", str(k)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert_one_error_line(err)
    else:
        assert err == ""


def assert_same_graph(loaded, g):
    """Equal points, whose candidate loops read the same class words: the
    loader's comarking may differ from ``g``'s only by gauge."""
    assert loaded == g
    assert candidates(loaded) == candidates(g)


@given(st.integers(0, 10_000), st.integers(0, 8), st.booleans())
@settings(max_examples=40, deadline=None)
def test_automorphism_round_trip(seed, n_moves, as_images):
    phi = random_automorphism(random.Random(seed), 3, n_moves)
    if as_images:
        phi = Automorphism.from_images(3, phi.image_words())
    back = jsonio.automorphism_from_obj(jsonio.automorphism_to_obj(phi))
    assert back == phi
    assert back.inverse_images == phi.inverse_images
    assert (back.moves is None) == as_images


@given(st.integers(0, 10_000), st.integers(0, 6))
@settings(max_examples=15, deadline=None)
def test_graph_round_trip(seed, n_moves):
    phi = random_automorphism(random.Random(seed), 3, n_moves)
    for g in spine_points(3, 0.05, seed, 2):
        for h in (g, transform(g, phi)):
            assert_same_graph(jsonio.graph_from_obj(jsonio.graph_to_obj(h)), h)


def test_seeded_graphs_round_trip_equal():
    # a file stores everything that identifies a point, so every reload
    # equals its original: 48 spine points and a transform of each
    for seed in range(6):
        phi = random_automorphism(random.Random(seed), 3, 4)
        for g in spine_points(3, 0.05, seed, 8):
            for h in (g, transform(g, phi)):
                assert_same_graph(jsonio.graph_from_obj(jsonio.graph_to_obj(h)), h)


def test_spanning_tree_is_the_loaders_own_bfs_tree():
    """A loaded graph's comarking is read off ``_Graph.spanning_tree`` by
    the graph constructor; graph equality ignores the comarking, so the
    round trips above cannot tell another tree apart.  Checked against the
    oracle's breadth-first tree (``o_bfs_tree``) on the bundled graphs, on
    the seeded graphs of the round trips (a transform shares its source's
    graph), and on a graph in two pieces."""
    graphs = [jsonio.load_graph(os.path.join(DATA, f)) for f in ("rose3.json", "rose_half_quarter.json")]
    for seed in range(6):
        graphs += spine_points(3, 0.05, seed, 8) + spine_points(4, 0.05, seed, 2)
    for g in graphs:
        assert g._topo.graph.spanning_tree(g.basepoint) == o_bfs_tree(g.edges, g.basepoint)
    trees = [g for g in graphs if len(g.vertices) > 1]
    assert len(trees) > 20
    a, b = trees[:2]
    pieces = [
        Edge(k + e.id, k + e.src, k + e.dst, e.length) for k, g in (("p", a), ("q", b)) for e in g.edges
    ]
    got = _Graph(_shape(pieces)).spanning_tree("p" + a.basepoint)
    assert got == o_bfs_tree(pieces, "p" + a.basepoint)
    assert got[1] == {"p" + v for v in a.vertices}


def test_long_marking_round_trips(tmp_path):
    # marking words of 555/156/1,194/756 letters; certifying the inverse
    # substitutes over a million letters before they cancel
    rng = random.Random(208)
    rank = rng.choice([3, 4])
    phi = Automorphism.identity(rank)
    for _ in range(rng.randrange(5, 40)):
        phi = compose(rng.choice(elementary_automorphisms(rank)), phi)
    g = transform(unit_rose(rank), invert(phi))
    assert sorted(len(p) for p in g.marking) == [156, 555, 756, 1194]
    jsonio.dump_graph(g, str(tmp_path / "g.json"))
    assert_same_graph(jsonio.load_graph(str(tmp_path / "g.json")), g)


atom_st = st.tuples(
    st.lists(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), min_size=1, max_size=10),
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)


@given(st.integers(2, 4), st.lists(atom_st, max_size=6))
@settings(max_examples=60, deadline=None)
def test_current_round_trip(rank, atoms):
    words = [(Word(rank, [x for x in letters if abs(x) <= rank]), w) for letters, w in atoms]
    nu = RationalCurrent(rank, [(w, weight) for w, weight in words if cyclic_reduce(w)[0].letters])
    text = jsonio.dumps(jsonio.current_to_obj(nu))
    back = jsonio.current_from_obj(json.loads(text))
    assert back == nu
    assert jsonio.dumps(jsonio.current_to_obj(back)) == text


@pytest.mark.parametrize(
    "obj, where",
    [
        ({"value": math.inf, "word": "a"}, "value is inf"),
        ({"history": [[1.0, 2.0]] * 3 + [[-math.inf, 1.0]], "k": 4}, "history[3][0] is -inf"),
        ({"b": [0.5, {"c": math.nan}], "a": {"d": math.inf}}, "a.d is inf"),
    ],
)
def test_dumps_names_the_first_non_finite_number(obj, where):
    """The path is the first non-finite number's in the order ``dumps``
    writes the body: keys sorted, list entries in order."""
    with pytest.raises(ValueError) as raised:
        jsonio.dumps(obj)
    assert str(raised.value) == f"{where}, which has no JSON form"
