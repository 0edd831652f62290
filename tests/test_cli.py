import cmath
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from conesurf import cli, load_surface, make_doubled_polygon, make_torus
from conesurf.charts import chart_for
from conesurf.cli import build_parser, main


def run(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def parse(text):
    record = {}
    for line in text.strip().splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            record[key] = value
    return record


@pytest.fixture
def torus_path(tmp_path, capsys):
    path = tmp_path / "torus.json"
    status, _ = run(capsys, "make", "torus", "--u", "1,0", "--v", "0,1", "-o", str(path))
    assert status == 0
    return str(path)


@pytest.fixture
def pentagon_path(tmp_path, capsys):
    path = tmp_path / "pentagon.json"
    status, _ = run(capsys, "make", "regular-polygon", "--sides", "5", "-o", str(path))
    assert status == 0
    return str(path)


class TestMakeValidate:
    def test_make_then_validate(self, torus_path, capsys):
        status, out = run(capsys, "validate", torus_path)
        assert status == 0
        record = parse(out)
        assert record["genus"] == "1"
        assert float(record["angle[0]"]) == pytest.approx(2 * math.pi, abs=1e-12)
        assert record["version"] == "0.1.0"
        assert "density_conventions" in record

    def test_near_degenerate_torus_is_an_error_record(self, capsys):
        status, out = run(capsys, "make", "torus", "--u", "1,0", "--v", "1,5e-12")
        assert status == 1
        assert parse(out)["error"] == "DegenerateInput"

    def test_make_star_shaped_polygon(self, capsys):
        # the L-hexagon, star-shaped from its first vertex, a 3-pi point
        status, out = run(capsys, "make", "polygon", "--vertices",
                          "0,0;0,1;-1,1;-1,-1;1,-1;1,0")
        assert status == 0
        assert parse(out)["angle[0]"] == "9.42477796076938"

    def test_make_polygon_needs_vertices(self, capsys):
        status, out = run(capsys, "make", "polygon")
        assert status == 1
        record = parse(out)
        assert record["error"] == "ConesurfError"
        assert record["message"].startswith("make polygon needs --vertices")

    def test_disconnected_file_is_an_error_record(self, tmp_path, capsys, disjoint_union):
        path = tmp_path / "two_pieces.json"
        path.write_text(disjoint_union(make_torus(1, 1j), make_doubled_polygon(
            [0, 1, cmath.exp(1j * math.pi / 3)])).to_json())
        for verb in ("validate", "info", "density"):
            status, out = run(capsys, verb, str(path))
            assert status == 1
            assert parse(out)["error"] == "ValueError"

    def test_validate_missing_file(self, capsys):
        status, out = run(capsys, "validate", "/nonexistent/surface.json")
        assert status == 1
        assert "error = " in out

    def test_unknown_flag_is_usage_error(self, capsys, torus_path):
        with pytest.raises(SystemExit) as exc:
            main(["validate", torus_path, "--bogus"])
        assert exc.value.code == 2

    def test_seed_required(self, capsys, pentagon_path):
        with pytest.raises(SystemExit) as exc:
            main(["hyp-compare", pentagon_path, "--samples", "3"])
        assert exc.value.code == 2


class TestInfo:
    def test_pentagon_figures(self, pentagon_path, capsys):
        status, out = run(capsys, "info", pentagon_path)
        assert status == 0
        record = parse(out)
        assert record["vertices"] == "5"
        assert record["genus"] == "0"
        assert record["cut_edges"] == "13"
        assert record["kernel_dim"] == "3"
        assert float(record["gauss_bonnet_residual"]) < 1e-12
        assert record["half_turn_holonomy"] == "false"


class TestDeterminism:
    def test_byte_identical_runs(self, pentagon_path, capsys):
        _, out1 = run(capsys, "hyp-compare", pentagon_path, "--samples", "5",
                      "--seed", "7")
        _, out2 = run(capsys, "hyp-compare", pentagon_path, "--samples", "5",
                      "--seed", "7")
        assert out1 == out2

    def test_make_deterministic_file(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "make", "regular-polygon", "--sides", "5", "-o", str(p1))
        run(capsys, "make", "regular-polygon", "--sides", "5", "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestOperations:
    def test_flip_roundtrip(self, torus_path, tmp_path, capsys):
        out_path = tmp_path / "flipped.json"
        status, out = run(capsys, "flip", torus_path, "--edge", "2",
                          "-o", str(out_path))
        assert status == 0
        status, out = run(capsys, "validate", str(out_path))
        assert status == 0

    def test_delaunay(self, tmp_path, capsys):
        path = tmp_path / "skew.json"
        run(capsys, "make", "torus", "--u", "1,0", "--v", "2,1", "-o", str(path))
        status, out = run(capsys, "delaunay", str(path))
        assert status == 0
        assert parse(out)["violations"] == "0"

    def test_insert(self, torus_path, tmp_path, capsys):
        status, out = run(capsys, "insert", torus_path, "--corner", "0",
                          "--vec", "2,1", "-o", str(tmp_path / "ins.json"))
        assert status == 0
        assert parse(out)["segment_is_edge"] == "true"

    def test_insert_dump_development(self, torus_path, tmp_path, capsys):
        dev = tmp_path / "dev.txt"
        status, _ = run(capsys, "insert", torus_path, "--corner", "0",
                        "--vec", "2,1", "--dump-development", str(dev))
        assert status == 0
        lines = dev.read_text().strip().splitlines()
        assert len(lines) == 4  # one crossing: quadrilateral

    def test_flip_path(self, torus_path, tmp_path, capsys):
        flipped = tmp_path / "f.json"
        run(capsys, "flip", torus_path, "--edge", "2", "-o", str(flipped))
        path_file = tmp_path / "path.json"
        status, out = run(capsys, "flip-path", torus_path, str(flipped),
                          "-o", str(path_file))
        assert status == 0
        assert out.strip().endswith("PASS")
        import json

        moves = json.loads(path_file.read_text())
        assert all(set(m) == {"edge", "quad", "new_vector"} for m in moves)

    def test_cut_and_chart(self, pentagon_path, tmp_path, capsys):
        status, out = run(capsys, "cut", pentagon_path)
        assert status == 0
        record = parse(out)
        assert record["boundary_pairs"] == "4"
        chart_file = tmp_path / "chart.json"
        status, out = run(capsys, "chart", pentagon_path, "-o", str(chart_file))
        assert status == 0
        import json

        doc = json.loads(chart_file.read_text())
        assert doc["rank"] == 10

    def test_density(self, pentagon_path, capsys):
        status, out = run(capsys, "density", pentagon_path)
        assert status == 0
        record = parse(out)
        assert float(record["value"]) > 0
        assert record["convention"] == "short-sequence"


    def test_density_log_value_follows_value(self, pentagon_path, capsys):
        status, out = run(capsys, "density", pentagon_path)
        keys = [line.split(" = ")[0] for line in out.splitlines()]
        assert keys[keys.index("value") + 1] == "log_value"
        record = parse(out)
        assert math.exp(float(record["log_value"])) == pytest.approx(
            float(record["value"]), rel=1e-14)


VERBS = ("make", "validate", "info", "cut", "density", "chart", "flip", "delaunay",
         "insert", "flip-path", "check-flip-invariance", "check-tree-invariance",
         "compare-period", "hyp-compare")


def test_top_level_help_lists_every_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    # argparse lists a verb only when it has a help text, on its line or the next
    listed = re.findall(r"^ {4}(\S+)(?: +|\n {24})\S", capsys.readouterr().out, re.M)
    assert listed == list(VERBS)


class TestChecks:
    def test_flip_invariance(self, pentagon_path, capsys):
        status, out = run(capsys, "check-flip-invariance", pentagon_path,
                          "--moves", "5", "--seed", "2")
        assert status == 0
        assert out.strip().endswith("PASS")

    def test_flip_invariance_survives_underflow(self, pentagon_path, capsys, monkeypatch):
        # on a 1e-100 * kernel frame both densities underflow to 0.0
        real = cli.flip_density_pair

        def tiny_frame(surface, edge):
            return real(surface, edge, 1e-100 * chart_for(surface)[1].kernel)

        surface = load_surface(pentagon_path)
        edge = next(e for e in surface.edges() if e not in surface.forest)
        assert [r.value for r in tiny_frame(surface, edge)] == [0.0, 0.0]
        monkeypatch.setattr(cli, "flip_density_pair", tiny_frame)
        status, out = run(capsys, "check-flip-invariance", pentagon_path,
                          "--moves", "5", "--seed", "2")
        assert status == 0
        deviations = [float(v) for k, v in parse(out).items() if k.startswith("ratio_deviation")]
        assert len(deviations) == 5 and all(math.isfinite(d) for d in deviations)
        assert out.strip().endswith("PASS")

    def test_tree_invariance(self, pentagon_path, capsys):
        # the star tree at vertex 0 in the pentagon's skeleton
        from conesurf import load_surface
        from conesurf.charts import spanning_forest

        star = sorted(spanning_forest(load_surface(pentagon_path)))
        status, out = run(capsys, "check-tree-invariance", pentagon_path,
                          "--tree", ",".join(str(e) for e in star))
        assert status == 0
        assert out.strip().endswith("PASS")

    def test_compare_period(self, torus_path, capsys):
        status, out = run(capsys, "compare-period", torus_path,
                          "--samples", "4", "--seed", "11")
        assert status == 0
        assert out.strip().endswith("PASS")

    def test_hyp_compare(self, pentagon_path, capsys):
        status, out = run(capsys, "hyp-compare", pentagon_path,
                          "--samples", "10", "--seed", "7")
        assert status == 0
        record = parse(out)
        assert float(record["spread"]) < 1e-6
        assert out.strip().endswith("PASS")

    def test_check_fails_cleanly_on_bad_input(self, torus_path, capsys):
        status, out = run(capsys, "hyp-compare", torus_path,
                          "--samples", "3", "--seed", "1")
        assert status == 1
        assert "error = NotGenusZero" in out


class TestUnknownIds:
    @pytest.mark.parametrize("argv, error", [
        (("flip", "--edge", "9999"), "ValueError"),
        (("insert", "--corner", "9999", "--vec", "1,0"), "ValueError"),
        (("check-tree-invariance", "--tree", "9999"), "NotSpanningTree"),
    ])
    def test_unknown_halfedge_is_an_error_record(self, pentagon_path, capsys, argv, error):
        status, out = run(capsys, argv[0], pentagon_path, *argv[1:])
        assert status == 1
        record = parse(out)
        assert record["error"] == error
        assert "unknown" in record["message"]

    def test_unknown_edge_message_names_the_flag(self, pentagon_path, capsys):
        status, out = run(capsys, "flip", pentagon_path, "--edge", "9999")
        assert status == 1
        assert parse(out)["message"] == "--edge names unknown half-edge 9999"

    def test_surface_file_missing_field(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text('{"vertices": [], "triangles": [], "gluing": [], "vectors": {}}\n')
        status, out = run(capsys, "validate", str(path))
        assert status == 1
        record = parse(out)
        assert record["error"] == "ValueError"
        assert "forest" in record["message"]


class TestMalformedSurfaceFile:
    @pytest.mark.parametrize("field, value", [
        ("vertices", [5]),
        ("vertices", 5),
        ("gluing", 3),
        ("forest", 1),
        ("vectors", [[1, 0]]),
        ("forest", [None]),
    ])
    def test_wrong_json_shape_is_an_error_record(self, torus_path, tmp_path, capsys,
                                                 field, value):
        doc = json.loads(Path(torus_path).read_text(encoding="utf-8"))
        doc[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        status, out = run(capsys, "validate", str(path))
        assert status == 1
        record = parse(out)
        assert record["error"] == "ValueError"
        assert repr(field) in record["message"]


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ("check-flip-invariance", "--moves", "0", "--seed", "1"),
        ("check-flip-invariance", "--moves", "-3", "--seed", "1"),
        ("compare-period", "--samples", "0", "--seed", "1"),
        ("hyp-compare", "--samples", "0", "--seed", "1"),
        ("insert", "--corner", "0", "--vec", "nan,1"),
        ("insert", "--corner", "0", "--vec", "1,inf"),
    ])
    def test_usage_error(self, torus_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], torus_path, *argv[1:]])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_bad_polygon_vertex_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["make", "polygon", "--vertices", "0,0;1"])
        assert exc.value.code == 2

    def test_zero_segment_is_an_error_record(self, torus_path, tmp_path, capsys):
        dev = tmp_path / "dev.txt"
        status, out = run(capsys, "insert", torus_path, "--corner", "0", "--vec", "0,0",
                          "--dump-development", str(dev))
        assert status == 1
        assert parse(out)["error"] == "DegenerateInput"
        assert not dev.exists()


class TestVerbContract:
    def test_failed_write_is_an_error_record_without_verdict(self, torus_path, tmp_path,
                                                              capsys):
        flipped = tmp_path / "f.json"
        run(capsys, "flip", torus_path, "--edge", "2", "-o", str(flipped))
        status, out = run(capsys, "flip-path", torus_path, str(flipped),
                          "-o", str(tmp_path / "missing" / "path.json"))
        assert status == 1
        lines = out.strip().splitlines()
        assert lines[-2].startswith("error = ")
        assert "PASS" not in lines and "FAIL" not in lines

    def test_written_record_follows_the_verb_records(self, torus_path, tmp_path, capsys):
        target = tmp_path / "d.json"
        status, out = run(capsys, "delaunay", torus_path, "-o", str(target))
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[-2:] == ["violations = 0", f"written = {target}"]
        assert target.exists()


def readme_commands():
    """The ``conesurf`` lines of the sh block under "## Command line"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()]
    return [line[1:] for line in lines if line and line[0] == "conesurf"]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        status, out = run(capsys, *argv)
        assert status == 0, (argv, out)
        if build_parser().parse_args(argv).check:
            assert out.strip().splitlines()[-1] == "PASS", argv
