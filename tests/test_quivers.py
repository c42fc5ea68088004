import pytest

from quiver_virasoro.quivers import (
    INFINITY,
    Quiver,
    euler_form,
    frame_at_infinity,
    framify,
    parse_quiver,
    preset,
    preset_names,
    serialize_quiver,
    todd_matrix,
)
from quiver_virasoro.vertex_algebra import Lattice


# ---------------------------------------------------------------------------
# construction and validation

def test_make_quiver_basic():
    q = Quiver(("a", "b"), (("a", "b"),))
    assert q.vertices == ("a", "b")
    assert q.edges == (("a", "b"),)
    assert q.frozen == frozenset()
    assert q.unfrozen == ("a", "b")


def test_duplicate_vertex_rejected():
    with pytest.raises(ValueError):
        Quiver(("a", "a"))


def test_edge_with_undeclared_endpoint_rejected():
    with pytest.raises(ValueError):
        Quiver(("a",), (("a", "b"),))


def test_relation_into_frozen_tail_rejected():
    with pytest.raises(ValueError):
        Quiver(("a", "b"), (("a", "b"),), (("b", "a"),), frozenset({"b"}))


# ---------------------------------------------------------------------------
# numerical invariants

def test_todd_matrix_a2():
    q = preset("A_2")
    assert todd_matrix(q) == ((1, -1), (0, 1))


def test_todd_matrix_with_relations_p2():
    # Three edges 1->2, three edges 2->3, three relations 1->3.
    q = preset("P_2")
    assert todd_matrix(q) == ((1, -3, 3), (0, 1, -3), (0, 0, 1))


def test_todd_matrix_loop_vertex():
    # One loop: diagonal entry 1 - 1 = 0.
    q = Quiver(("a",), (("a", "a"),))
    assert todd_matrix(q) == ((0,),)


def test_euler_form_and_symmetrization():
    q = preset("A_2")
    assert euler_form(q, (1, 0), (0, 1)) == -1
    assert euler_form(q, (0, 1), (1, 0)) == 0
    # chi(d, d) on the preset dimension vectors
    assert euler_form(q, (1, 1), (1, 1)) == 1
    assert euler_form(q, (2, 1), (2, 1)) == 3


def test_nondegeneracy():
    # the symmetrized form td + td^T has a dual basis exactly when it is
    # nondegenerate
    for name in ("A_1", "A_2", "P_2"):
        Lattice.from_quiver(preset(name)).dual_basis()
    # the 2-arrow Kronecker quiver has degenerate symmetrized form
    with pytest.raises(ValueError, match="degenerate"):
        Lattice.from_quiver(preset("Kronecker-2")).dual_basis()


def test_dimension_vectors_accept_mappings_and_sequences():
    q = preset("A_2")
    assert euler_form(q, {"1": 1}, {"2": 1}) == -1
    assert euler_form(q, [1, 0], (0, 1)) == -1


# ---------------------------------------------------------------------------
# framing constructions

def test_framify_a1():
    q = framify(preset("A_1"))
    assert q.vertices == ("(1)", "1")
    assert q.frozen == frozenset({"(1)"})
    assert q.edges == (("(1)", "1"),)
    td = todd_matrix(q)
    qsym = tuple(
        tuple(td[i][j] + td[j][i] for j in range(2)) for i in range(2)
    )
    assert qsym == ((0, -1), (-1, 2))


def test_framify_rejects_name_clash():
    q = Quiver(("v", "(v)"))
    with pytest.raises(ValueError):
        framify(q)


def test_frame_at_infinity_a1():
    inf = frame_at_infinity(preset("A_1"), (2,))
    assert inf.vertices == (INFINITY, "1")
    assert inf.frozen == frozenset({INFINITY})
    assert inf.edges == ((INFINITY, "1"), (INFINITY, "1"))
    assert todd_matrix(inf) == ((0, -2), (0, 1))


def test_frame_at_infinity_rejects_bad_input():
    with pytest.raises(ValueError):
        frame_at_infinity(framify(preset("A_1")), (1,))  # already frozen
    with pytest.raises(ValueError):
        frame_at_infinity(preset("A_1"), (0,))  # zero framing


# ---------------------------------------------------------------------------
# text format

def test_parse_and_serialize_round_trip_is_byte_stable():
    text = "vertex a frozen\nvertex b\nedge a b x2\n"
    q, dims, frames = parse_quiver(text)
    assert dims is None and frames is None
    assert serialize_quiver(q) == text
    # serializing a parse of the serialization is a fixed point
    q2, _, _ = parse_quiver(serialize_quiver(q))
    assert serialize_quiver(q2) == serialize_quiver(q)


def test_parse_quiver_dim_and_frame_lines():
    text = "vertex 1\nvertex 2\nedge 1 2\ndim 1 2\ndim 2 1\nframe 1 3\nframe 2 1\n"
    q, dims, frames = parse_quiver(text)
    assert dims == {"1": 2, "2": 1}
    assert frames == {"1": 3, "2": 1}
    assert serialize_quiver(q, dims=dims, frames=frames) == text


def test_parse_quiver_comments_and_counts():
    text = "# my quiver\nvertex a\nvertex b\nedge a b x3\n"
    q, _, _ = parse_quiver(text)
    assert len(q.edges) == 3


def test_parse_quiver_error_reports_line_number():
    with pytest.raises(ValueError, match="line 2"):
        parse_quiver("vertex a\nnonsense here\n")
    # semantic errors surface from construction with a clear message
    with pytest.raises(ValueError, match="undeclared"):
        parse_quiver("vertex a\nedge a b\n")


def test_serialize_groups_repeated_edges():
    q = Quiver(("a", "b"), (("a", "b"),) * 3)
    assert "edge a b x3" in serialize_quiver(q)


# ---------------------------------------------------------------------------
# presets

def test_preset_names_cover_the_standard_list():
    names = preset_names()
    for name in ("a1", "a2", "a3", "kronecker2", "p2", "p1xp1"):
        assert name in names


def test_preset_lookup_is_forgiving_about_punctuation():
    assert preset("A_1") == preset("a1")
    assert preset("Kronecker-2") == preset("kronecker 2")
    assert preset("P_1×P_1") == preset("p1xp1")


def test_preset_p1xp1_shape():
    q = preset("p1xp1")
    assert len(q.vertices) == 4
    assert len(q.edges) == 8
    assert len(q.relations) == 4


def test_unknown_preset_raises_with_known_names():
    with pytest.raises(ValueError, match="a1"):
        preset("nonesuch")
