"""Protograph lifting, girth/cycle machinery, and the exponent-file format."""

import io
import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nishigraph import (METProtograph, TannerGraph, ace, bipartite_adjacency,
                        block_cycle_consistent, enumerate_cycles, girth, lift,
                        optimize_lift, parse_exponent_text, qc,
                        read_exponent_file, write_exponent_file)

from util import bipartite_adjacency_by_loop, lifted_score

H1_TEXT = "L=7\n1 2 4\n6 5 3\n"


def data_path(name):
    return str(resources.files("nishigraph").joinpath("data", name))


def test_protograph_validation():
    with pytest.raises(ValueError):
        METProtograph([[[5]]], L=3)            # shift out of range
    with pytest.raises(ValueError):
        METProtograph([[[1, 1]]], L=3)         # repeated shift = parallel edges
    with pytest.raises(ValueError):
        METProtograph([[[0], [1]], [[0]]], L=3)  # ragged rows
    with pytest.raises(ValueError):
        METProtograph([[[], []]], L=3)         # all-zero protograph
    with pytest.raises(ValueError):
        METProtograph([[[None]]], L=3)         # unset without allow_unset
    p = METProtograph([[[0, 2], []]], L=3)
    assert p.weight_matrix().tolist() == [[2, 0]]
    assert not p.has_unset()


def test_parse_exponent_text_single_shifts():
    p = parse_exponent_text(H1_TEXT)
    assert p.L == 7
    assert p.cells == [[[1], [2], [4]], [[6], [5], [3]]]


def test_parse_exponent_text_multi_shift_and_zero_cells():
    p = parse_exponent_text("# comment\nL=41\n1,2,7 9 23 -1 -1\n12,37 19 -1 32 11,12\n-1 -1 33 -1 -1\n")
    assert p.L == 41
    assert p.cells[0][0] == [1, 2, 7]
    assert p.cells[1][4] == [11, 12]
    assert p.cells[2] == [[], [], [33], [], []]


def test_parse_exponent_text_errors():
    with pytest.raises(ValueError):
        parse_exponent_text("1 2 3\n")              # missing header
    with pytest.raises(ValueError):
        parse_exponent_text("L=7\n1 x 3\n")         # bad cell token
    with pytest.raises(ValueError):
        parse_exponent_text("L=7\n1 9 3\n")         # shift outside [0, L)
    with pytest.raises(ValueError):
        parse_exponent_text("L=7\n")                # no block rows


@pytest.mark.parametrize("text, message", [
    # lines end as in a text-mode file: not at a form feed or U+2028
    ("L=7\x0c\n1 x 3\n", "line 2: cell 1 is not a shift list: 'x'"),
    ("L=7\n\u2028\n1 x 3\n", "line 3: cell 1 is not a shift list: 'x'"),
    ("L=7\r1 2\r\n1 9\n", "line 3: cell 1 shift 9 outside [0,7)"),
    ("# only a comment\n", "line 2: expected header 'L=<int>', found end of file"),
    ("L=7\n\n", "line 3: expected a block row, found end of file"),
    ("L=0\n1\n", "line 1: bad circulant size '0'"),
    ("L=7\n1 2\n3\n", "line 3: 1 cells, expected 2"),
    ("L=7\n1,3,1 2\n", "line 2: cell 0 repeats shift 1"),
    ("L=7\n-1 -1\n# c\n-1 -1\n", "line 4: protograph has no nonzero cell"),
])
def test_parse_exponent_text_names_the_line(text, message):
    with pytest.raises(ValueError) as err:
        parse_exponent_text(text)
    assert str(err.value) == message


_EXP_TOKEN = st.one_of(st.sampled_from(["-1", "0", "1", "2,3", "3,3", "x", "",
                                        "#", "L=", "L=4", "L=0", "\x0c",
                                        "\u2028", "\r", "\x85"]),
                       st.integers(-2, 6).map(str),
                       st.text(max_size=4))
_EXP_LINE = st.lists(_EXP_TOKEN, max_size=4).map(" ".join)


@given(st.one_of(st.text(),
                 st.lists(_EXP_LINE, max_size=6).map("\n".join),
                 st.lists(_EXP_LINE, max_size=5).map(
                     lambda lines: "\n".join(["L=4"] + lines))))
def test_parse_exponent_text_gives_a_protograph_or_names_the_line(text):
    # the text's lines as a text-mode file reads them; len + 1 is the end
    n_lines = len(list(io.StringIO(text, newline=None)))
    try:
        p = parse_exponent_text(text)
    except ValueError as exc:
        number = re.fullmatch(r"line (\d+): .+", str(exc), re.DOTALL)
        assert number and 1 <= int(number[1]) <= n_lines + 1, str(exc)
    else:
        assert isinstance(p, METProtograph)


def test_read_exponent_file_names_the_file_and_line(tmp_path):
    path = tmp_path / "code.exp"
    path.write_bytes(b"L=7\n1 caf\xe9 3\n")
    with pytest.raises(ValueError) as err:
        read_exponent_file(str(path))
    assert str(err.value) == f"{path}: line 2: byte 0xe9 is not UTF-8"
    path.write_text("L=7\n1 2\n3\n")
    with pytest.raises(ValueError) as err:
        read_exponent_file(str(path))
    assert str(err.value) == f"{path}: line 3: 1 cells, expected 2"


def test_exponent_file_round_trip(tmp_path):
    p = parse_exponent_text("L=41\n1,2,7 9 -1\n-1 19 32\n")
    path = tmp_path / "code.exp"
    write_exponent_file(p, str(path))
    back = read_exponent_file(str(path))
    assert back.L == p.L
    assert back.cells == p.cells


def test_lift_edge_rule_single_circulant():
    # a single shift-k cell couples check i to variable (i + k) mod L
    p = METProtograph([[[3]]], L=5)
    g = lift(p)
    assert g.n_checks == 5 and g.n_vars == 5
    assert g.edges == sorted((i, (i + 3) % 5) for i in range(5))
    assert g.family_tag == "spherical"


def test_lift_of_two_blockrow_code():
    g = lift(parse_exponent_text(H1_TEXT))
    assert (g.n_checks, g.n_vars) == (14, 21)
    assert len(g.edges) == 42
    assert g.family_tag == "toroidal"
    assert g.check_degrees() == [3] * 14
    assert g.var_degrees() == [2] * 21
    assert girth(g) == 12


def test_lift_rejects_unset_shifts():
    p = METProtograph([[[None]]], L=3, allow_unset=True)
    with pytest.raises(ValueError):
        lift(p)


def test_block_cycle_consistency_rule():
    # length-4 block cycle through shifts a, b, c, d closes iff a-b+c-d = 0 mod L
    assert block_cycle_consistent([0, 0, 0, 0], L=7)
    assert block_cycle_consistent([1, 3, 5, 3], L=7)
    assert not block_cycle_consistent([1, 3, 5, 4], L=7)
    assert block_cycle_consistent([1, 3, 5, 10], L=7)  # alternating sum -7
    with pytest.raises(ValueError):
        block_cycle_consistent([1, 2, 3], L=7)


def test_girth_four_cycle_and_forest():
    c4 = TannerGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert girth(c4) == 4
    tree = TannerGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
    assert math.isinf(girth(tree))


def test_all_zero_shift_lift_is_disjoint_base_copies():
    # 2x2 all-ones base with zero shifts lifts to L disjoint 4-cycles
    p = METProtograph([[[0], [0]], [[0], [0]]], L=3)
    g = lift(p)
    cycles = enumerate_cycles(g, 4)
    assert len(cycles) == 3
    assert all(c.length == 4 for c in cycles)
    assert all(ace(c, g) == 0 for c in cycles)  # every variable has degree 2
    assert girth(g) == 4


def test_circulant_cycle_length_law():
    # the 2x2 all-ones lift is a union of cycles of length 4 L / gcd(delta, L)
    # where delta is the alternating shift sum around the base 4-cycle
    shifts = [[[5], [11]], [[12], [3]]]
    delta = (5 - 11 + 3 - 12) % 13
    expected = 4 * 13 // math.gcd(delta, 13)
    g = lift(METProtograph(shifts, L=13))
    assert expected == 52
    assert girth(g) == expected


def test_enumerate_cycles_validation():
    g = lift(METProtograph([[[0], [0]], [[0], [0]]], L=2))
    with pytest.raises(ValueError):
        enumerate_cycles(g, 5)
    with pytest.raises(ValueError):
        enumerate_cycles(g, 14)


def test_ace_rejects_foreign_cycle():
    g1 = lift(METProtograph([[[0], [0]], [[0], [0]]], L=2))
    cyc = enumerate_cycles(g1, 4)[0]
    g2 = TannerGraph(1, 2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        ace(cyc, g2)


def test_optimize_lift_is_deterministic_and_reports_lift_quality():
    pat = METProtograph([[[None], [None]], [[None], [None]]], L=13,
                        allow_unset=True)
    r1 = optimize_lift(pat, L=13, min_girth=8, min_ace=2, seed=9)
    r2 = optimize_lift(pat, L=13, min_girth=8, min_ace=2, seed=9)
    assert r1.proto.cells == r2.proto.cells
    assert r1.satisfied
    assert r1.girth == girth(lift(r1.proto))
    assert r1.girth >= 8
    assert r1.restarts_used >= 1


# Lifted-graph DFS work grows like vertices * (max base degree - 1)^scan;
# min_girth values whose scan would exceed this budget are not drawn.
_ORACLE_BUDGET = 1e8


@st.composite
def scored_patterns(draw):
    """A protograph with 0-2 distinct shifts per cell and a min_girth."""
    m_b = draw(st.integers(1, 3))
    n_b = draw(st.integers(1, 4))
    L = draw(st.integers(2, 9))
    cells = [[sorted(draw(st.sets(st.integers(0, L - 1), max_size=2)))
              for _ in range(n_b)] for _ in range(m_b)]
    if not any(cell for row in cells for cell in row):
        cells[0][0] = [draw(st.integers(0, L - 1))]
    w = np.array([[len(cell) for cell in row] for row in cells])
    step = max(w.sum(axis=0).max(), w.sum(axis=1).max()) - 1
    affordable = [g for g in (4, 6, 8, 10)
                  if L * (m_b + n_b) * max(step, 1) ** min(g + 4, 12) <= _ORACLE_BUDGET]
    return METProtograph(cells, L), draw(st.sampled_from(affordable))


@given(scored_patterns())
def test_protograph_score_matches_lifted_oracle(case):
    proto, min_girth = case
    assert qc._score_lift(proto, min_girth) == lifted_score(proto, min_girth)


@pytest.mark.parametrize("cells, L, min_girth, expected", [
    # two parallel shifts: the length-2 block walk repeated L times closes
    ([[[0, 1]]], 2, 4, (4, -1, 0)),
    ([[[0, 1]]], 3, 4, (6, -1, 0)),
    ([[[0, 1], [0]], [[1], [0, 1]]], 2, 6, None),
    ([[[0, 2], [1]], [[1], [0, 1]]], 3, 8, None),
    ([[[0, 1], [0, 2], [1]], [[2], [0], [0, 1]]], 3, 10, None),
    # a star lifts to a forest: no cycle at all
    ([[[0], [1], [2]]], 5, 6, (math.inf, 0, math.inf)),
    # girth 52 > scan: no block walk closes, the BFS gives the girth
    ([[[5], [11]], [[12], [3]]], 13, 4, (52, 0, math.inf)),
    ([[[5], [11]], [[12], [3]]], 13, 10, (52, 0, math.inf)),
])
def test_protograph_score_edge_cases(cells, L, min_girth, expected):
    proto = METProtograph(cells, L)
    got = qc._score_lift(proto, min_girth)
    assert got == lifted_score(proto, min_girth)
    if expected is not None:
        assert got[0] == expected


@pytest.mark.parametrize("cells, L", [
    ([[[0, 3], [1], [4]], [[2], [0, 5], [1]]], 6),
    # girth 8: at min_girth 4 it lies past the ACE lengths, so every chunk
    # must walk on to the shortest closing length found by any chunk
    ([[[6], [0, 6], [2]], [[], [], [0, 3]]], 7),
])
def test_protograph_score_in_chunks_and_exact_ints(monkeypatch, cells, L):
    # one start edge per chunk, and Python-int walk counts, change nothing
    proto = METProtograph(cells, L)
    want = {g: lifted_score(proto, g) for g in (4, 6, 8)}
    monkeypatch.setattr(qc, "_WALK_CHUNK", 1)
    assert {g: qc._score_lift(proto, g) for g in want} == want
    monkeypatch.setattr(qc, "_INT64_WALKS", 1)
    assert {g: qc._score_lift(proto, g) for g in want} == want


@pytest.mark.parametrize("m_b, n_b, L, min_girth, min_ace, seed, restarts, steps, want", [
    # the benchmark's code-path search: 3x5 all free, L=12, 1 restart x 8 steps
    (3, 5, 12, 6, 4, 0, 1, 8,
     ([[[10], [7], [6], [3], [3]], [[0], [0], [0], [2], [9]],
       [[7], [10], [6], [7], [11]]], 4, 2, False, 1)),
    (2, 2, 13, 8, 2, 9, 24, 150, ([[[5], [11]], [[12], [3]]], 52, math.inf, True, 1)),
])
def test_seeded_lift_searches_are_pinned(m_b, n_b, L, min_girth, min_ace, seed,
                                         restarts, steps, want):
    # the shifts and scores the lifted-graph scorer found for these searches
    pat = METProtograph([[[None]] * n_b for _ in range(m_b)], L, allow_unset=True)
    r = optimize_lift(pat, L, min_girth, min_ace, seed, restarts, steps)
    assert (r.proto.cells, r.girth, r.min_ace, r.satisfied, r.restarts_used) == want


def test_optimize_lift_validation():
    pat = METProtograph([[[None]]], L=4, allow_unset=True)
    with pytest.raises(ValueError):
        optimize_lift(pat, L=1, min_girth=4, min_ace=1, seed=0)
    big = METProtograph([[[None]] * 9], L=4, allow_unset=True)
    with pytest.raises(ValueError):
        optimize_lift(big, L=4, min_girth=4, min_ace=1, seed=0)


def test_bipartite_adjacency_orders_variables_first():
    g = lift(parse_exponent_text(H1_TEXT))
    A, D = bipartite_adjacency(g)
    n = g.n_vertices()
    assert A.n == D.n == n == 35
    dense = A.to_dense()
    assert np.allclose(np.diag(dense), 0.0)
    # variable block 0..20, check block 21..34; no edges inside either block
    assert np.allclose(dense[:21, :21], 0.0)
    assert np.allclose(dense[21:, 21:], 0.0)
    assert np.allclose(dense.sum(axis=1), D.diagonal())
    assert D.diagonal()[:21].tolist() == [2.0] * 21
    assert D.diagonal()[21:].tolist() == [3.0] * 14


@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_edge_array_and_adjacency_match_edge_loop_oracle(n_checks, n_vars, data):
    # zero-degree checks and variables included; identical arrays means
    # identical SparseSym insertion order too
    pairs = [(c, v) for c in range(n_checks) for v in range(n_vars)]
    g = TannerGraph(n_checks, n_vars, data.draw(st.lists(
        st.sampled_from(pairs), unique=True)))
    assert g._edge_array.tolist() == [list(e) for e in g.edges]
    assert not g._edge_array.flags.writeable
    for got, want in zip(bipartite_adjacency(g), bipartite_adjacency_by_loop(g)):
        assert got.n == want.n
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype


def test_bundled_exponent_files_parse(tmp_path):
    for name, L in (("h1.exp", 7), ("h2.exp", 41), ("h3.exp", 2600)):
        p = read_exponent_file(data_path(name))
        assert p.L == L
