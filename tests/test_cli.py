import json

import pytest

from corridors import read_coloring, read_complex
from corridors.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_corridor(self, tmp_path, capsys):
        out = tmp_path / "sc.cplx"
        code, _, _ = run(capsys, "build", "corridor", "--n", "10", "--dim", "3", "--out", str(out))
        assert code == 0
        c = read_complex(out)
        assert len(c.facets) == 8 and c.dim_facet == 3

    def test_boundary_with_labels(self, tmp_path, capsys):
        out = tmp_path / "b.cplx"
        code, _, _ = run(
            capsys, "build", "boundary", "--n", "6", "--dim", "3",
            "--out", str(out), "--labels",
        )
        assert code == 0
        labels = (tmp_path / "b.cplx.labels").read_text().splitlines()
        c = read_complex(out)
        assert len(labels) == len(c.facets) == 8
        assert labels[0] == "alpha" and labels[-1] == "omega"
        assert labels[2] == "middle 1 1"

    def test_labels_rejected_for_corridor(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "corridor", "--n", "10", "--dim", "3",
            "--out", str(tmp_path / "x"), "--labels",
        )
        assert code == 2 and "labels" in err

    def test_bad_parameters(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "build", "corridor", "--n", "2", "--dim", "3",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


@pytest.fixture
def built(tmp_path, capsys):
    sc_path = tmp_path / "sc.cplx"
    assert main(["build", "corridor", "--n", "60", "--dim", "3", "--out", str(sc_path)]) == 0
    capsys.readouterr()
    return tmp_path, sc_path


class TestColoringCommands:
    def test_color_refine_quotient_verify(self, built, capsys):
        tmp_path, sc_path = built
        f_path = tmp_path / "f.coloring"
        code, out, _ = run(
            capsys, "color", "--in", str(sc_path), "--c1", "13",
            "--epsilon", "0.2", "--seed", "4", "--out", str(f_path), "--json",
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["face_count"] == 117  # 2N - 3 ridges
        assert stats["window"] == 4

        g_path = tmp_path / "g.coloring"
        code, out, _ = run(
            capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
            "--shape", "corridor", "--seed", "4", "--out", str(g_path), "--json",
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["t"] == 18 and stats["ridge_patterns_unique"]
        refined = read_coloring(g_path)
        assert refined.c == 13 * stats["c2"]

        q_path = tmp_path / "q.cplx"
        rep_path = tmp_path / "q.json"
        code, out, _ = run(
            capsys, "quotient", "--in", str(sc_path), "--coloring", str(g_path),
            "--out", str(q_path), "--report", str(rep_path), "--json",
        )
        assert code == 0
        fragment = json.loads(rep_path.read_text())
        assert fragment["diameter_quotient"] == 57
        assert fragment["boundary_preserved"] is True

        code, out, _ = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(g_path),
            "--against", str(q_path), "--json",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert checks["boundary_preserved"] and checks["quotient_matches"]

    def test_verify_fails_on_collisions(self, built, capsys):
        tmp_path, sc_path = built
        f_path = tmp_path / "const.coloring"
        lines = ["colors 13"] + [f"{v} {(v - 1) % 2 + 1}" for v in range(1, 61)]
        f_path.write_text("\n".join(lines) + "\n")
        code, _, _ = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
        )
        assert code == 1

    def test_verify_against_requires_coloring(self, built, capsys):
        tmp_path, sc_path = built
        code, _, err = run(
            capsys, "verify", "--in", str(sc_path), "--against", str(sc_path),
        )
        assert code == 2

    def test_verify_rejects_overlong_coloring(self, built, capsys):
        tmp_path, sc_path = built
        f_path = tmp_path / "long.coloring"
        lines = ["colors 13"] + [f"{v} {(v - 1) % 13 + 1}" for v in range(1, 62)]
        f_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
        )
        assert code == 2
        assert err.splitlines() == [
            "error: coloring covers 61 vertices, complex has 60"
        ]

    def test_refine_rejects_bad_first_stage(self, built, capsys):
        tmp_path, sc_path = built
        f_path = tmp_path / "bad.coloring"
        lines = ["colors 13"] + [f"{v} {(v - 1) % 2 + 1}" for v in range(1, 61)]
        f_path.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
            "--shape", "corridor", "--out", str(tmp_path / "x"),
        )
        assert code == 2 and "proper" in err


    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_color_bad_epsilon_exit_2(self, built, capsys, epsilon):
        tmp_path, sc_path = built
        code, out, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", "13",
            "--epsilon", epsilon, "--out", str(tmp_path / "f.coloring"),
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: need a finite positive epsilon, got {float(epsilon)}"
        ]

    @pytest.mark.parametrize(
        "line,message",
        [
            ("2", "line 4: expected 'vertex color', got '2'"),
            ("2 1 3", "line 4: expected 'vertex color', got '2 1 3'"),
            ("2 one", "line 4: expected integers, got '2 one'"),
        ],
    )
    def test_bad_vertex_line_names_it(self, built, capsys, line, message):
        tmp_path, sc_path = built
        f_path = tmp_path / "bad.coloring"
        body = [f"{v} {(v - 1) % 13 + 1}" for v in range(3, 61)]
        f_path.write_text("\n".join(["colors 13", "# first two", "1 1", line] + body) + "\n")
        code, out, err = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_bad_facet_token_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cplx"
        path.write_text("dim 3 vertices 5\n1 2 3\n\n2 x 4\n3 4 5\n")
        code, out, err = run(capsys, "diameter", "--in", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: line 4: expected integers, got '2 x 4'"]


class TestDiameterCommand:
    def test_default(self, built, capsys):
        _, sc_path = built
        code, out, _ = run(capsys, "diameter", "--in", str(sc_path), "--json")
        assert code == 0
        assert json.loads(out)["value"] == 57

    def test_pair_and_double_sweep(self, built, capsys):
        _, sc_path = built
        code, out, _ = run(
            capsys, "diameter", "--in", str(sc_path), "--pair", "0", "57", "--json",
        )
        assert json.loads(out)["value"] == 57
        code, out, _ = run(
            capsys, "diameter", "--in", str(sc_path), "--method", "double-sweep", "--json",
        )
        assert json.loads(out)["value"] <= 57

    def test_disconnected_is_parameter_error(self, tmp_path, capsys):
        path = tmp_path / "two.cplx"
        path.write_text("dim 3 vertices 6\n1 2 3\n4 5 6\n")
        code, _, err = run(capsys, "diameter", "--in", str(path))
        assert code == 2


class TestBoundsCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10", "--dim", "3", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["hs_upper"] == 25.0


class TestPipelineCommand:
    def test_simplicial_run_writes_report(self, tmp_path, capsys):
        rep = tmp_path / "run.json"
        code, _, _ = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40",
            "--c1", "13", "--epsilon", "0.2", "--seed", "7", "--out", str(rep),
        )
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["ok"] and report["results"]["diameter"] == 37

    def test_degenerate_run(self, capsys):
        code, out, _ = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "3",
            "--c1", "13", "--seed", "0", "--json",
        )
        assert code == 0
        assert json.loads(out)["results"]["diameter"] == 0

    def test_parameter_error_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "2", "--n", "40",
            "--c1", "13", "--seed", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_bad_epsilon_exit_2(self, capsys, epsilon):
        code, out, err = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40",
            "--c1", "13", "--epsilon", epsilon,
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: need a finite positive epsilon, got {float(epsilon)}"
        ]

    def test_exhaustion_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "200",
            "--c1", "13", "--seed", "0", "--c2", "2", "--max-resamples", "1",
        )
        assert code == 3

    def test_strict_policy_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40",
            "--c1", "13", "--seed", "0", "--s-policy", "strict",
        )
        assert code == 3

    def test_exhaustion_prints_its_state(self, capsys):
        code, out, err = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "200",
            "--c1", "13", "--seed", "0", "--c2", "2", "--max-resamples", "1",
        )
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: 118 colliding patterns left after 1 resamples"]

    def test_strict_policy_prints_its_state(self, capsys):
        code, out, err = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40",
            "--c1", "13", "--seed", "0", "--s-policy", "strict", "--retries", "3",
        )
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: best class size 3 > cap 1 after 3 attempts"]

    def test_pseudomanifold_run_exit_0(self, capsys):
        code, _, _ = run(
            capsys, "pipeline", "--mode", "pseudomanifold", "--dim", "3", "--n", "12",
            "--c1", "13", "--seed", "1", "--quiet",
        )
        assert code == 0


class TestBenchCommand:
    def test_small_grid(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code, _, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "30,40", "--c1s", "13",
            "--seeds", "0", "--out", str(out_path), "--quiet",
        )
        assert code == 0
        table = json.loads(out_path.read_text())
        assert len(table["rows"]) == 2
        assert all(r["status"] == "ok" for r in table["rows"])

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, capsys, jobs):
        code, _, err = run(capsys, "bench", "--seeds", "0,1", "--jobs", jobs)
        assert code == 2
        assert err.splitlines() == [f"error: need at least one job, got {jobs}"]

    @pytest.mark.parametrize("epsilon", ["0", "-0.5", "nan", "inf"])
    def test_bad_epsilon_exit_2(self, capsys, epsilon):
        code, out, err = run(capsys, "bench", "--seeds", "0", "--epsilon", epsilon)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: need a finite positive epsilon, got {float(epsilon)}"
        ]

    def test_failed_cell_prints_its_error(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "40", "--c1s", "12", "--seeds", "0",
        )
        assert code == 0
        assert out.splitlines()[-1] == "cell 0: precondition-failed: need c1 > 12, got 12"
