import re

import numpy as np
import pytest

from polyrefine import (
    MeshParseError,
    MeshValidationError,
    load_mesh,
    refine,
    render_svg,
    save_mesh,
    structured_quad_mesh,
)
from polyrefine.cli import cli_main
from polyrefine.meshfile import load_field, read_mesh_file, save_field

from sample_meshes import SQUARE_ELEMS, SQUARE_NODES, cascade_mesh, centroidal_voronoi_mesh, prismatic_pentagon_patch


# two squares that share no node
APART_NODES = [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [3, 0], [3, 1], [2, 1]]
APART_ELEMS = [[0, 1, 2, 3], [4, 5, 6, 7]]


def per_row_save_mesh(nodes, elements, path):
    """The writer ``save_mesh`` replaced (one f-string or join per row), kept as a byte oracle."""
    out = ["polymesh 1", f"nodes {len(nodes)}"]
    out += [f"{x!r} {y!r}" for x, y in np.asarray(nodes, dtype=float).tolist()]
    out.append(f"elements {len(elements)}")
    out += [" ".join(map(str, c)) for c in elements]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def oracle_meshes():
    """The meshes on which ``save_mesh`` must write the oracle's bytes."""
    rng = np.random.default_rng(5)
    grid = structured_quad_mesh(16)
    marked = np.sort(rng.choice(256, size=38, replace=False))  # 15 % of the cells, scattered
    odd = [-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 1.7976931348623157e308]
    return {
        "grid3": structured_quad_mesh(3),
        "voronoi0": centroidal_voronoi_mesh(0),
        "voronoi1": centroidal_voronoi_mesh(1),
        "scattered": refine(*grid, marked),
        "odd-coordinates": (np.vstack([SQUARE_NODES, np.reshape(odd, (3, 2)), -np.reshape(odd, (3, 2))]),
                            SQUARE_ELEMS),
        "no-elements": (SQUARE_NODES, []),
    }


# What the reader makes of one token, pinned so that a faster parse keeps it: in
# the 4th node's x, the coordinate read (``repr``) or the parse error; in the 4th
# entry of element 0, the index read or the parse error; then the violations of
# ``load_mesh``'s report (none: it loads).  The node header is on line 2, the
# element header (after a blank line) on line 8.
CCW = "orientation at 0: vertices are not counterclockwise"
NOT_AN_INT = "element block below line 8: invalid literal for int() with base 10: "
NODE_TOKENS = [
    ("+3", "3.0", [CCW]),
    ("1_0", "10.0", [CCW]),
    ("-0", "-0.0", []),
    ("1.5", "1.5", ["self-intersection at 0: polygon is not simple"]),
    ("0x1", "node block below line 2: could not convert string to float: '0x1'", None),
    ("1e3", "1000.0", [CCW]),
    ("nan", "nan", ["nonfinite-node at 3: coordinate is nan or inf"]),
    ("99999999999999999999", "1e+20", [*(f"duplicate-nodes at {pair}: nodes coincide"
                                         for pair in ["(0, 1)", "(0, 2)", "(1, 2)"]),
                                       "degenerate at 0: polygon area is numerically zero"]),
]
ELEMENT_TOKENS = [
    ("+3", 3, []),
    ("1_0", 10, ["invalid-index at 0: vertex index out of range"]),
    ("-0", 0, ["repeated-vertex at 0: cycle revisits a vertex"]),
    *[(t, NOT_AN_INT + repr(t), None) for t in ["1.5", "0x1", "1e3", "nan"]],
    # beyond int64: read as a Python int, then rejected by validation, not by the parser
    ("99999999999999999999", 99999999999999999999, ["invalid-index at 0: vertex index out of range"]),
    ("99999999999999999999 x", NOT_AN_INT + "'x'", None),
]


def three_pass_mesh():
    """An 8 x 8 grid after three passes, each marking a seventh of the cells at random."""
    rng = np.random.default_rng(7)
    nodes, elems = structured_quad_mesh(8)
    for _ in range(3):
        nodes, elems = refine(nodes, elems, np.sort(rng.choice(len(elems), size=len(elems) // 7, replace=False)))
    return nodes, elems


def write_square(path):
    save_mesh(SQUARE_NODES, SQUARE_ELEMS, path)
    return str(path)


class TestMeshFile:
    def test_single_square_roundtrip(self, tmp_path):
        p = tmp_path / "sq.mesh"
        save_mesh(SQUARE_NODES, SQUARE_ELEMS, p)
        nodes, elems = load_mesh(p)
        assert np.array_equal(nodes, SQUARE_NODES)
        assert elems == SQUARE_ELEMS

    def test_roundtrip_bit_exact_awkward_floats(self, tmp_path):
        rng = np.random.default_rng(3)
        nodes, elems = structured_quad_mesh(3)
        nodes = nodes + rng.uniform(-1e-3, 1e-3, nodes.shape) * (nodes[:, :1] * nodes[:, 1:])
        p = tmp_path / "warp.mesh"
        save_mesh(nodes, elems, p)
        back, eb = load_mesh(p)
        assert np.array_equal(back, nodes)  # bit-exact
        assert eb == elems

    def test_refined_golden_roundtrip(self, tmp_path):
        nodes, elems = refine(*structured_quad_mesh(2), [0])
        p = tmp_path / "golden.mesh"
        save_mesh(nodes, elems, p)
        back, eb = load_mesh(p)
        assert np.array_equal(back, nodes)
        assert eb == elems

    def test_clockwise_element_rejected_with_element_named(self, tmp_path):
        p = tmp_path / "cw.mesh"
        save_mesh(SQUARE_NODES, [[0, 3, 2, 1]], p)
        with pytest.raises(MeshValidationError) as err:
            load_mesh(p)
        assert "orientation at 0" in str(err.value)

    def test_parse_errors(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("not a mesh\n")
        with pytest.raises(MeshParseError):
            load_mesh(p)
        p.write_text("polymesh 1\nnodes 2\n0 0\n")
        with pytest.raises(MeshParseError):
            load_mesh(p)
        p.write_text("polymesh 99\nnodes 0\nelements 0\n")
        with pytest.raises(MeshParseError):
            load_mesh(p)

    @pytest.mark.parametrize("line", ["nodes", "nodes 1 2"])
    def test_nodes_line_needs_one_count(self, tmp_path, capsys, line):
        p = tmp_path / "bad.mesh"
        p.write_text(f"polymesh 1\n{line}\n")
        with pytest.raises(MeshParseError):
            load_mesh(p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        assert "parse error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        pytest.param("polymesh 1\nnodes 100000000000\n0 0\n", "line 2: nodes count", id="huge-count"),
        pytest.param("polymesh 1\nnodes -3\nelements 0\n", "line 2: nodes count", id="negative-count"),
        pytest.param("polymesh 1\nnodes 3\n0 0\n1 0 7\n0 1\nelements 1\n0 1 2\n", "line 4: ",
                     id="three-values"),
        pytest.param("polymesh 1\nnodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2.0\n", "element block",
                     id="non-integer-entry"),
        pytest.param("polymesh 1\n", "unexpected end of file, expected 'nodes'", id="ends-after-header"),
        pytest.param("polymesh 1\nnodes 2\n0 0\n1 x\nelements 0\n",
                     "node block below line 2: could not convert string to float: 'x'", id="coordinate-x"),
        pytest.param("polymesh 1\nnodes 3\n0 0\n1 0\n0 1\nelements 1\n0 1 2\n0 1\n", "trailing content at line 8",
                     id="trailing-content"),
        # blank lines count: messages cite the file's own line numbers
        pytest.param("polymesh 1\n\n\nnodes 2\n0 0\n1\nelements 0\n",
                     "line 6: a node needs 2 coordinates, got 1", id="blank-lines-bad-node-row"),
        pytest.param("\npolymesh 1\nnodes 1\n0 0\n\n  \nelemnts 0\n", "line 7: expected 'elements', got 'elemnts'",
                     id="blank-lines-bad-header"),
        pytest.param("polymesh 1\n\nnodes x\n", "line 3: 'nodes' needs one integer count", id="blank-lines-bad-count"),
        pytest.param("polymesh 1\n\nnodes 1\n\n0 y\nelements 0\n", "node block below line 3",
                     id="blank-lines-bad-coordinate"),
        pytest.param("polymesh 1\nnodes 3\n0 0\n1 0\n0 1\n\nelements 1\n0 1 2\n\n7\n",
                     "trailing content at line 10", id="blank-lines-trailing-content"),
    ])
    def test_malformed_blocks(self, tmp_path, capsys, text, where):
        p = tmp_path / "bad.mesh"
        p.write_text(text)
        with pytest.raises(MeshParseError, match=where):
            load_mesh(p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        assert "parse error:" in capsys.readouterr().err

    def test_blank_and_padded_lines_are_skipped(self, tmp_path):
        p = tmp_path / "blank.mesh"
        p.write_text("\n  polymesh 1\n\nnodes 4\n0 0\n\t1 0 \n1 1\n\n0 1\nelements 1\n\n0 1 2 3\n\n")
        nodes, elems = load_mesh(p)
        assert np.array_equal(nodes, SQUARE_NODES)
        assert elems == SQUARE_ELEMS

    def test_empty_element_table_rejected(self, tmp_path):
        p = tmp_path / "empty.mesh"
        save_mesh(SQUARE_NODES, [], p)
        with pytest.raises(MeshValidationError, match="element table is empty"):
            load_mesh(p)

    @pytest.mark.parametrize("name", list(oracle_meshes()))
    def test_save_mesh_writes_the_per_row_bytes(self, tmp_path, name):
        nodes, elems = oracle_meshes()[name]
        if name.startswith("voronoi"):
            assert set(map(len, elems)) == {4, 5, 6, 7}
        save_mesh(nodes, elems, tmp_path / "flat.mesh")
        per_row_save_mesh(nodes, elems, tmp_path / "rows.mesh")
        assert (tmp_path / "flat.mesh").read_bytes() == (tmp_path / "rows.mesh").read_bytes()

    @pytest.mark.parametrize("block, token, read, report", [
        *[pytest.param("nodes", *case, id=f"nodes-{case[0]}") for case in NODE_TOKENS],
        *[pytest.param("elements", *case, id=f"elements-{case[0]}") for case in ELEMENT_TOKENS],
    ])
    def test_token_semantics(self, tmp_path, block, token, read, report):
        p = tmp_path / "token.mesh"
        if block == "nodes":
            p.write_text(f"polymesh 1\nnodes 4\n0 0\n1 0\n1 1\n{token} 1\nelements 1\n0 1 2 3\n")
        else:
            p.write_text(f"polymesh 1\nnodes 4\n0 0\n1 0\n1 1\n0 1\n\nelements 1\n0 1 2 {token}\n")
        if report is None:
            for reader in (read_mesh_file, load_mesh):
                with pytest.raises(MeshParseError) as err:
                    reader(p)
                assert str(err.value) == read
            return
        nodes, elems = read_mesh_file(p)
        if block == "nodes":
            assert repr(float(nodes[3, 0])) == read and elems == SQUARE_ELEMS
        else:
            assert np.array_equal(nodes, SQUARE_NODES)
            assert elems == [[0, 1, 2, read]] and type(elems[0][3]) is int
        if not report:
            load_mesh(p)
            return
        with pytest.raises(MeshValidationError) as err:
            load_mesh(p)
        assert str(err.value) == "\n".join([f"{len(report)} violations", *report])

    @pytest.mark.parametrize("mesh", [pytest.param(lambda: structured_quad_mesh(128), id="grid128"),
                                      pytest.param(lambda: centroidal_voronoi_mesh(0), id="voronoi0"),
                                      pytest.param(three_pass_mesh, id="three-passes")])
    def test_read_table_holds_one_int_per_node(self, tmp_path, mesh):
        nodes, elems = mesh()
        p = tmp_path / "saved.mesh"
        save_mesh(nodes, elems, p)
        saved = [list(map(int, c)) for c in elems]
        for reader in (read_mesh_file, load_mesh):
            back_nodes, back = reader(p)
            assert np.array_equal(back_nodes, nodes) and back == saved
            assert len({id(v) for c in back for v in c}) == len(nodes)

    def test_memory_of_a_loaded_grid(self, tmp_path):
        # one int object per vertex, where one per entry held 3.99 MiB
        import tracemalloc

        p = tmp_path / "grid.mesh"
        save_mesh(*structured_quad_mesh(128), p)
        tracemalloc.start()
        try:
            mesh = load_mesh(p)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(mesh[1]) == 128 * 128
        assert kept < 2.5 * 2**20, kept

    def test_entries_that_are_not_vertices_keep_their_values(self, tmp_path):
        p = tmp_path / "bad.mesh"
        p.write_text("polymesh 1\nnodes 4\n0 0\n1 0\n1 1\n0 1\nelements 3\n0 1 2 3\n0 1 2 7\n-1 1 2 3\n")
        nodes, elems = read_mesh_file(p)
        assert elems == [[0, 1, 2, 3], [0, 1, 2, 7], [-1, 1, 2, 3]]
        with pytest.raises(MeshValidationError) as err:
            load_mesh(p)
        assert str(err.value) == "2 violations\ninvalid-index at 1: vertex index out of range\n" \
                                 "invalid-index at 2: vertex index out of range"

    def test_field_roundtrip(self, tmp_path):
        p = tmp_path / "f.txt"
        vals = np.array([0.1, -2.5, 1e-17, 3.0])
        save_field(vals, p)
        assert np.array_equal(load_field(p), vals)

    def test_field_line_that_is_not_a_number(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("0\n\nabc\n2\n")
        with pytest.raises(MeshParseError, match="bad field file .*: line 3: could not convert string to float: 'abc'$"):
            load_field(p)

    @pytest.mark.parametrize("text, shown", [("nan", "nan"), ("1e400", "inf"), ("-inf", "-inf")])
    def test_field_with_a_non_finite_value_is_a_parse_error(self, tmp_path, text, shown):
        p = tmp_path / "f.txt"
        p.write_text(f"0\n1\n{text}\n2\nnan\n")
        with pytest.raises(MeshParseError, match=f"bad field file .*: line 3 is {shown}, not finite$"):
            load_field(p)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_is_not_saved(self, tmp_path, bad):
        p = tmp_path / "f.txt"
        with pytest.raises(ValueError, match=f"field value 1 is {bad}, not finite"):
            save_field([0.0, bad, 2.0], p)
        assert not p.exists()

class TestRenderSvg:
    def test_single_square_one_polygon(self, tmp_path):
        p = tmp_path / "sq.svg"
        render_svg(SQUARE_NODES, SQUARE_ELEMS, p)
        text = p.read_text()
        assert text.count("<polygon") == 1

    def test_refined_square_four_polygons(self, tmp_path):
        nodes, elems = refine(SQUARE_NODES, SQUARE_ELEMS, [0])
        p = tmp_path / "r.svg"
        render_svg(nodes, elems, p)
        assert p.read_text().count("<polygon") == 4

    def test_polygon_count_matches_any_mesh(self, tmp_path):
        nodes, elems = cascade_mesh()
        nodes, elems = refine(nodes, elems, [0])
        p = tmp_path / "c.svg"
        render_svg(nodes, elems, p)
        assert p.read_text().count("<polygon") == len(elems)

    def test_field_coloring_and_determinism(self, tmp_path):
        nodes, elems = refine(SQUARE_NODES, SQUARE_ELEMS, [0])
        vals = nodes[:, 0] + nodes[:, 1]
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(nodes, elems, a, values=vals)
        render_svg(nodes, elems, b, values=vals)
        assert a.read_bytes() == b.read_bytes()
        assert "#" in a.read_text()  # color fills present

    def test_field_scale_does_not_change_the_fills(self, tmp_path):
        nodes, elems = refine(*structured_quad_mesh(4), [0, 5, 10])
        vals = np.random.default_rng(1).standard_normal(len(nodes))
        pics = []
        for scale in [1.0, 3.0, 1e-300, 1e300]:
            p = tmp_path / f"s{scale}.svg"
            render_svg(nodes, elems, p, values=scale * vals)
            pics.append(re.findall(r'fill="(#[0-9a-f]{6})"', p.read_text()))
        assert all(fills == pics[0] for fills in pics[1:])
        assert len(set(pics[0])) > 10

    def test_bad_field_length(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg(SQUARE_NODES, SQUARE_ELEMS, tmp_path / "x.svg", values=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected_before_writing(self, tmp_path, bad):
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="need one finite value per vertex"):
            render_svg(SQUARE_NODES, SQUARE_ELEMS, out, values=[0.0, 1.0, bad, 2.0])
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("extra", [(np.nan, 0.5), (np.inf, 0.0)], ids=["nan", "inf"])
    def test_unused_non_finite_node_leaves_the_viewport(self, tmp_path, extra):
        nodes, elems = structured_quad_mesh(2)
        values = nodes[:, 0] - 2.0 * nodes[:, 1]
        render_svg(nodes, elems, tmp_path / "a.svg")
        render_svg(nodes, elems, tmp_path / "a_field.svg", values=values)
        nodes = np.vstack([nodes, [extra]])
        render_svg(nodes, elems, tmp_path / "b.svg")
        render_svg(nodes, elems, tmp_path / "b_field.svg", values=np.r_[values, 0.0])
        assert (tmp_path / "b.svg").read_bytes() == (tmp_path / "a.svg").read_bytes()
        assert (tmp_path / "b_field.svg").read_bytes() == (tmp_path / "a_field.svg").read_bytes()


class TestCli:
    def test_refine_single_square(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        out = str(tmp_path / "out.mesh")
        assert cli_main(["refine", "--in", src, "--marked", "0", "--out", out]) == 0
        nodes, elems = load_mesh(out)
        assert (len(nodes), len(elems)) == (9, 4)

    def test_refine_with_marks_file(self, tmp_path):
        src = write_square(tmp_path / "in.mesh")
        marks = tmp_path / "marks.txt"
        marks.write_text("0\n1,2\n")
        out = str(tmp_path / "out.mesh")
        rc = cli_main(["refine", "--in", src, "--marks-file", str(marks), "--out", out])
        assert rc == 0
        nodes, elems = load_mesh(out)
        ref = refine(*refine(SQUARE_NODES, SQUARE_ELEMS, [0]), [1, 2])
        assert np.array_equal(nodes, ref[0])
        assert elems == ref[1]

    def test_quality_valid_mesh(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        assert cli_main(["quality", "--in", src]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out
        assert "hanging nodes: 0" in out

    def test_quality_invalid_mesh(self, tmp_path, capsys):
        p = tmp_path / "cw.mesh"
        save_mesh(SQUARE_NODES, [[0, 3, 2, 1]], p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        assert "orientation" in capsys.readouterr().out

    def test_quality_rejects_twin_element(self, tmp_path, capsys):
        p = tmp_path / "twin.mesh"
        save_mesh(structured_quad_mesh(2)[0], [[0, 1, 4, 3], [0, 1, 4, 3]], p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        assert "overlap at (0, 1)" in capsys.readouterr().out

    def test_quality_reports_a_t_junction(self, tmp_path, capsys):
        # node 6 sits on the right side of cell 0, which does not list it
        p = tmp_path / "t.mesh"
        save_mesh([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 0.5], [1, 0.5], [2, 1]],
                  [[0, 1, 2, 3], [1, 4, 5, 6], [6, 5, 7, 2]], p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("0 violations\nconformity: node 6 lies inside unmatched side (1, 2)\n")

    def test_refine_rejects_an_invalid_mesh(self, tmp_path, capsys):
        p = tmp_path / "twin.mesh"
        save_mesh(structured_quad_mesh(2)[0], [[0, 1, 4, 3], [0, 1, 4, 3]], p)
        out = tmp_path / "out.mesh"
        assert cli_main(["refine", "--in", str(p), "--marked", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("invalid mesh: overlap at (0, 1)")
        assert not out.exists()

    def test_refine_rejects_a_marked_entry_out_of_range(self, tmp_path, capsys):
        src = tmp_path / "grid.mesh"
        save_mesh(*structured_quad_mesh(2), src)
        out = tmp_path / "out.mesh"
        assert cli_main(["refine", "--in", str(src), "--marked", "99", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a marked entry is not an element index in [0, 4)\n"
        assert not out.exists()

    def test_quality_counts_hanging_nodes(self, tmp_path, capsys):
        nodes, elems = refine(*structured_quad_mesh(2), [0])
        p = tmp_path / "h.mesh"
        save_mesh(nodes, elems, p)
        assert cli_main(["quality", "--in", str(p)]) == 0
        assert "hanging nodes: 2" in capsys.readouterr().out

    def test_quality_empty_element_table(self, tmp_path, capsys):
        p = tmp_path / "empty.mesh"
        save_mesh(SQUARE_NODES, [], p)
        assert cli_main(["quality", "--in", str(p)]) == 1
        assert "element-table at None: element table is empty" in capsys.readouterr().out

    def test_quality_output_bytes(self, tmp_path, capsys):
        # refined twice, so the mesh has hanging nodes and irregular ratios
        nodes, elems = prismatic_pentagon_patch()
        nodes, elems = refine(nodes, elems, [0, 2])
        nodes, elems = refine(nodes, elems, [1, 4, 7])
        p = tmp_path / "q.mesh"
        save_mesh(nodes, elems, p)
        assert cli_main(["quality", "--in", str(p)]) == 0
        assert capsys.readouterr().out == (
            "0 violations\n"
            "nodes 38, elements 26, edges 63\n"
            "hanging nodes: 4\n"
            "edge/diameter ratio: min 0.286356 max 0.915181\n"
        )

    def test_render_command(self, tmp_path):
        src = write_square(tmp_path / "in.mesh")
        out = tmp_path / "m.svg"
        assert cli_main(["render", "--in", src, "--out", str(out)]) == 0
        assert out.read_text().count("<polygon") == 1

    def test_render_with_field(self, tmp_path):
        src = write_square(tmp_path / "in.mesh")
        fld = tmp_path / "f.txt"
        save_field([0.0, 1.0, 2.0, 3.0], fld)
        out = tmp_path / "m.svg"
        assert cli_main(["render", "--in", src, "--out", str(out), "--field", str(fld)]) == 0
        assert "#" in out.read_text()

    @pytest.mark.parametrize("nodes, elems, values, fills", [
        pytest.param(APART_NODES, APART_ELEMS, [1e308] * 4 + [-1e308] * 4, ["#ff0000", "#0000ff"],
                     id="cell-means-plus-minus-1e308"),
        pytest.param(SQUARE_NODES, SQUARE_ELEMS, [1e308, 1.5e308, 1.5e308, 1e308], ["#0000ff"],
                     id="one-cell-sum-overflows"),
    ])
    def test_render_with_a_huge_finite_field(self, tmp_path, nodes, elems, values, fills):
        src = tmp_path / "in.mesh"
        save_mesh(nodes, elems, src)
        fld = tmp_path / "f.txt"
        save_field(values, fld)
        out = tmp_path / "m.svg"
        assert cli_main(["render", "--in", str(src), "--out", str(out), "--field", str(fld)]) == 0
        assert re.findall(r'fill="(#[0-9a-f]{6})"', out.read_text()) == fills

    def test_render_rejects_a_field_of_the_wrong_length(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        fld = tmp_path / "f.txt"
        save_field([0.0, 1.0, 2.0], fld)
        out = tmp_path / "m.svg"
        assert cli_main(["render", "--in", src, "--out", str(out), "--field", str(fld)]) == 1
        assert capsys.readouterr().err == "error: field has 3 values for 4 nodes\n"
        assert not out.exists()

    def test_render_rejects_a_non_finite_field(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        fld = tmp_path / "f.txt"
        fld.write_text("0\n1\nnan\n2\n")
        out = tmp_path / "m.svg"
        assert cli_main(["render", "--in", src, "--out", str(out), "--field", str(fld)]) == 1
        assert capsys.readouterr().err == f"parse error: bad field file {fld}: line 3 is nan, not finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["quality"], ["refine", "--marked", "0", "--out", "out"], ["adapt", "--out-prefix", "out"],
        ["render", "--out", "out"],
    ], ids=lambda c: c[0])
    def test_non_utf8_mesh_file_is_a_parse_error(self, tmp_path, capsys, command):
        src = tmp_path / "in.mesh"
        src.write_bytes(b"polymesh 1\nnodes 4\n0 0\n1 0\n1 1\n0 \xe9\nelements 1\n0 1 2 3\n")
        command = [str(tmp_path / a) if a == "out" else a for a in command]
        assert cli_main([command[0], "--in", str(src), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {src} is not UTF-8 text: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [src]

    def test_bad_marks_file_line_is_one_line(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        marks = tmp_path / "marks.txt"
        marks.write_text("0\n0,x\n")
        out = tmp_path / "out.mesh"
        assert cli_main(["refine", "--in", src, "--marks-file", str(marks), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "parse error: bad marked list '0,x': invalid literal for int() with base 10: 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["refine", "--marks-file"], ["render", "--field"]], ids=lambda c: c[0])
    def test_non_utf8_marks_or_field_file_is_a_parse_error(self, tmp_path, capsys, command):
        src = write_square(tmp_path / "in.mesh")
        text = tmp_path / "in.txt"
        text.write_bytes(b"0\n\xff\n1\n2\n")
        out = tmp_path / "out"
        assert cli_main([command[0], "--in", src, command[1], str(text), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {text} is not UTF-8 text: ") and err.count("\n") == 1
        assert not out.exists()

    def test_marks_file_blank_and_padded_lines_are_skipped(self, tmp_path):
        src = write_square(tmp_path / "in.mesh")
        marks = tmp_path / "marks.txt"
        marks.write_text("\n 0 \n\n\t1,2\n\n")
        out = tmp_path / "out.mesh"
        assert cli_main(["refine", "--in", src, "--marks-file", str(marks), "--out", str(out)]) == 0
        assert load_mesh(out)[1] == refine(*refine(SQUARE_NODES, SQUARE_ELEMS, [0]), [1, 2])[1]

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        rc = cli_main(["render", "--in", str(tmp_path / "nope.mesh"), "--out", str(tmp_path / "x.svg")])
        assert rc == 1

    def test_adapt_three_steps_csv(self, tmp_path):
        nodes, elems = structured_quad_mesh(8)
        src = tmp_path / "grid.mesh"
        save_mesh(nodes, elems, src)
        prefix = str(tmp_path / "run")
        rc = cli_main(["adapt", "--in", str(src), "--theta", "0.4", "--steps", "3",
                       "--out-prefix", prefix])
        assert rc == 0
        lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert lines[0] == "step,N,NT,total_eta,marked_count"
        assert len(lines) == 4  # header + 3 data rows
        nts = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(nts, nts[1:]))
        # per-step artifacts: meshes and SVGs for steps 0..3
        for k in range(4):
            assert (tmp_path / f"run_step{k:03d}.mesh").exists()
            assert (tmp_path / f"run_step{k:03d}.svg").exists()

    def test_adapt_deterministic_bytes(self, tmp_path):
        nodes, elems = structured_quad_mesh(4)
        src = tmp_path / "grid.mesh"
        save_mesh(nodes, elems, src)
        outs = []
        for d in ["r1", "r2"]:
            (tmp_path / d).mkdir()
            prefix = str(tmp_path / d / "run")
            assert cli_main(["adapt", "--in", str(src), "--steps", "2",
                             "--out-prefix", prefix]) == 0
            blob = b""
            for name in sorted(p.name for p in (tmp_path / d).iterdir()):
                blob += (tmp_path / d / name).read_bytes()
            outs.append(blob)
        assert outs[0] == outs[1]

    def test_adapt_dof_cap_stops_early(self, tmp_path):
        nodes, elems = structured_quad_mesh(8)
        src = tmp_path / "grid.mesh"
        save_mesh(nodes, elems, src)
        prefix = str(tmp_path / "capped")
        assert cli_main(["adapt", "--in", str(src), "--steps", "30",
                         "--dof-cap", "120", "--out-prefix", prefix]) == 0
        lines = (tmp_path / "capped.csv").read_text().strip().splitlines()
        assert 1 < len(lines) < 31
        assert int(lines[-1].split(",")[1]) >= 120

    def test_usage_error_is_nonzero(self):
        assert cli_main(["refine", "--in"]) != 0

    @pytest.mark.parametrize("theta", ["1.5", "0", "-0.2", "nan", "abc"])
    def test_adapt_theta_out_of_range_is_usage_error(self, tmp_path, capsys, theta):
        src = tmp_path / "grid.mesh"
        save_mesh(*structured_quad_mesh(4), src)
        rc = cli_main(["adapt", "--in", str(src), "--theta", theta, "--steps", "1",
                       "--out-prefix", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyrefine adapt") and "--theta" in err
        assert not (tmp_path / "run.csv").exists()

    def test_adapt_negative_steps_is_usage_error(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        rc = cli_main(["adapt", "--in", src, "--steps", "-1", "--out-prefix", str(tmp_path / "run")])
        assert rc == 2
        assert "usage: polyrefine adapt" in capsys.readouterr().err

    def test_adapt_negative_dof_cap_is_usage_error(self, tmp_path, capsys):
        src = write_square(tmp_path / "in.mesh")
        rc = cli_main(["adapt", "--in", src, "--dof-cap", "-5", "--out-prefix", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyrefine adapt") and "--dof-cap" in err
        assert not (tmp_path / "run.csv").exists()

    def test_adapt_zero_steps_solves_start_mesh(self, tmp_path):
        src = write_square(tmp_path / "in.mesh")
        rc = cli_main(["adapt", "--in", src, "--steps", "0", "--out-prefix", str(tmp_path / "run")])
        assert rc == 0
        assert (tmp_path / "run.csv").read_text() == "step,N,NT,total_eta,marked_count\n"

    @pytest.mark.parametrize("steps", ["0", "-3", "two"])
    def test_refine_steps_below_one_is_usage_error(self, tmp_path, capsys, steps):
        # --steps is gone (the pass count is the line count of --marks-file),
        # so any value of it, one below 1 included, is an unrecognized argument;
        # argparse reports those from the top-level parser.
        src = write_square(tmp_path / "in.mesh")
        out = tmp_path / "out.mesh"
        rc = cli_main(["refine", "--in", src, "--marked", "0", "--steps", steps, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyrefine") and f"unrecognized arguments: --steps {steps}" in err
        assert not out.exists()

    @pytest.mark.parametrize("marks, why", [(["--marked", "0", "--marks-file", "marks.txt"], "not allowed with"),
                                            ([], "is required")], ids=["both", "neither"])
    def test_refine_needs_exactly_one_marks_option(self, tmp_path, capsys, marks, why):
        src = write_square(tmp_path / "in.mesh")
        (tmp_path / "marks.txt").write_text("0\n")
        marks = [str(tmp_path / m) if m == "marks.txt" else m for m in marks]
        out = tmp_path / "out.mesh"
        rc = cli_main(["refine", "--in", src, *marks, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: polyrefine refine") and why in err.splitlines()[-1]
        assert not out.exists()
