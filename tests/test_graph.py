import pytest

from equimatch.graph import (
    Graph,
    GraphFormatError,
    GraphSpecError,
    generate,
    graph_from_edges,
    parse_graph,
)


def test_parse_c6_canonical_order():
    text = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n"
    g = parse_graph(text)
    assert g.n == 6
    assert g.edges == ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))


def test_parse_single_vertex():
    g = parse_graph("1 0\n")
    assert g.n == 1 and g.edges == ()


def test_parse_input_order_irrelevant():
    a = parse_graph("4 3\n2 3\n0 1\n1 2\n")
    b = parse_graph("4 3\n0 1\n1 2\n2 3\n")
    assert a == b


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("3 2\n0 1\n0 1\n", 3),  # duplicate edge
        ("3 1\n2 2\n", 2),  # loop
        ("3 1\n0 5\n", 2),  # out of range
        ("3 1\nx y\n", 2),  # malformed
        ("3 2\n0 1\n", 3),  # truncated
        ("3 1\n0 1\n1 2\n", 3),  # a line after the m edges
        ("3 1\n0 1\n\n  \n# note\n", 5),  # non-blank after blank lines
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == lineno


def test_blank_lines_after_the_edges_parse():
    assert parse_graph("3 1\n0 1\n\n \n") == parse_graph("3 1\n0 1")


def test_roundtrip_idempotence(c6, path4, petersen):
    for g in (c6, path4, petersen):
        assert parse_graph(g.serialize()) == g


@pytest.mark.parametrize(
    "spec, n, edges",
    [
        ("path:1", 1, ()),
        ("path:4", 4, ((0, 1), (1, 2), (2, 3))),
        ("cycle:3", 3, ((0, 1), (0, 2), (1, 2))),
        ("cycle:6", 6, ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5))),
        ("complete:1", 1, ()),
        ("complete:4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        ("kbipartite:2:3", 5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
        ("star:1", 1, ()),
        ("star:5", 5, ((0, 1), (0, 2), (0, 3), (0, 4))),
        # the outer 5-cycle 0..4, the spokes i-(i+5) and the inner pentagram on 5..9
        ("petersen", 10, (
            (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
            (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
        )),
        ("gnp:1:1:1:0", 1, ()),
        ("gnp:4:1:1:3", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
        ("gnp:4:0:1:3", 4, ()),
        # the splitmix64 draws are fixed forever, and so are the graphs they give
        ("gnp:8:1:2:7", 8, (
            (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4),
            (1, 5), (2, 7), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
        )),
    ],
)
def test_generate_families(spec, n, edges):
    g = generate(spec)
    assert (g.n, g.edges) == (n, edges)


def test_generate_deterministic():
    assert generate("gnp:8:1:2:42") == generate("gnp:8:1:2:42")
    assert generate("gnp:8:0:1:7").num_edges == 0
    assert generate("gnp:8:1:1:7").num_edges == 28


@pytest.mark.parametrize(
    "spec, message",
    [
        ("", "unknown graph family ''"),
        ("wheel:5", "unknown graph family 'wheel'"),
        ("Path:3", "unknown graph family 'Path'"),
        ("path", "usage: path:n"),
        ("path:3:4", "usage: path:n"),
        ("cycle", "usage: cycle:n"),
        ("complete:3:3", "usage: complete:n"),
        ("kbipartite:3", "usage: kbipartite:a:b"),
        ("kbipartite:1:2:3", "usage: kbipartite:a:b"),
        ("star", "usage: star:n"),
        ("petersen:5", "usage: petersen"),
        ("gnp:4:1:2", "usage: gnp:n:p_num:p_den:seed"),
        ("gnp:4:1:2:1:1", "usage: gnp:n:p_num:p_den:seed"),
        ("path:0", "non-positive size: 0"),
        ("path:-3", "non-positive size: -3"),
        ("path:", "non-integer size: ''"),
        ("cycle:0", "non-positive size: 0"),
        ("cycle:2", "cycle needs n >= 3"),
        ("complete:x", "non-integer size: 'x'"),
        ("kbipartite:0:3", "non-positive size: 0"),
        ("kbipartite:3:0", "non-positive size: 0"),
        ("kbipartite:3:y", "non-integer size: 'y'"),
        ("star:0", "non-positive size: 0"),
        ("gnp:0:1:2:1", "non-positive size: 0"),
        ("gnp:x:1:2:1", "non-integer size: 'x'"),
        ("gnp:0:x:2:1", "non-positive size: 0"),
        ("gnp:5:x:2:1", "gnp parameters must be integers"),
        ("gnp:5:1:2:s", "gnp parameters must be integers"),
        ("gnp:5:3:2:1", "probability must lie in [0, 1]"),
        ("gnp:5:-1:2:1", "probability must lie in [0, 1]"),
        ("gnp:5:1:0:1", "probability must lie in [0, 1]"),
        ("gnp:5:0:-1:1", "probability must lie in [0, 1]"),
    ],
)
def test_generate_rejects_bad_specs(spec, message):
    with pytest.raises(GraphSpecError) as exc:
        generate(spec)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2)], "loop at vertex 2"),
        ([(0, 1), (1, 5)], "label out of range in (1, 5)"),
        ([(0, 1), (-1, 2)], "label out of range in (-1, 2)"),
        ([(0, 1), (1, 0)], "duplicate edge (0, 1)"),
    ],
)
def test_generators_and_files_refuse_an_edge_alike(edges, message):
    with pytest.raises(ValueError) as exc:
        graph_from_edges(3, edges)
    assert str(exc.value) == message
    text = "3 2\n" + "".join(f"{u} {v}\n" for (u, v) in edges)
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == f"line 3: {message}" and exc.value.line == 3


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (0, 1)))  # not sorted
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])  # duplicate after flip


def test_plain_classes_keep_equality_hash_repr_and_validation():
    from equimatch.exactalg import Pattern

    a = parse_graph("3 2\n1 2\n0 1\n")
    b = Graph(3, ((0, 1), (1, 2)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Graph(4, ((0, 1), (1, 2))) and a != Graph(3, ((0, 1),))
    assert a != (3, ((0, 1), (1, 2)))
    assert repr(b) == "Graph(n=3, edges=((0, 1), (1, 2)))"
    with pytest.raises(ValueError):
        Graph(-1, ())
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))

    m = Pattern(2, ((0, 1),))
    assert m == Pattern(2, ((0, 1),)) and hash(m) == hash(Pattern(2, ((0, 1),)))
    assert m != Pattern(3, ((0, 1),)) and m != Pattern(2, ((0,),)) and m != Pattern(2, ((0, 1), ()))
    assert m != (2, ((0, 1),))
    assert repr(m) == "Pattern(nrows=2, cols=((0, 1),))"
    with pytest.raises(ValueError):
        Pattern(2, ((1, 0),))
