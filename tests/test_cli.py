import json

import pytest

from corridors import read_coloring, read_complex
from corridors.cli import main
from conftest import time_limit


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

    def test_proper_colliding_coloring_fails_preservation(self, built, capsys):
        # period 3 is proper on SC(60, 3), but every facet gets pattern
        # {1, 2, 3}, so there is no bijection for the check to use
        tmp_path, sc_path = built
        f_path = tmp_path / "period3.coloring"
        lines = ["colors 3"] + [f"{v} {(v - 1) % 3 + 1}" for v in range(1, 61)]
        f_path.write_text("\n".join(lines) + "\n")
        q_path = tmp_path / "q.cplx"
        code, out, err = run(
            capsys, "quotient", "--in", str(sc_path), "--coloring", str(f_path),
            "--out", str(q_path), "--json",
        )
        assert code == 0 and err == ""
        fragment = json.loads(out)
        assert fragment["boundary_preserved"] is None
        assert fragment["facets_injective"] is False
        assert fragment["ridges_injective"] is False
        assert read_complex(q_path).facets == ((1, 2, 3),)

        code, out, err = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
            "--against", str(q_path), "--json",
        )
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["checks"] == {
            "connected": True,
            "pseudomanifold": False,
            "proper": True,
            "ridge_unique": False,
            "boundary_preserved": False,
            "quotient_matches": True,
        }
        assert report["ok"] is False

    def test_verify_against_improper_coloring_fails_as_verification(self, built, capsys):
        # no quotient exists, so the two quotient checks fail: exit 1, as
        # without --against
        tmp_path, sc_path = built
        f_path = tmp_path / "const.coloring"
        lines = ["colors 13"] + [f"{v} {(v - 1) % 2 + 1}" for v in range(1, 61)]
        f_path.write_text("\n".join(lines) + "\n")
        code, out, err = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
            "--against", str(sc_path), "--json",
        )
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["checks"] == {
            "connected": True,
            "pseudomanifold": False,
            "proper": False,
            "ridge_unique": False,
            "boundary_preserved": False,
            "quotient_matches": False,
        }
        assert report["required"][-2:] == ["boundary_preserved", "quotient_matches"]
        assert report["ok"] is False
        # the expected quotient is still read, so a malformed one is an error
        bad = tmp_path / "bad.cplx"
        bad.write_text("dim 3\n")
        code, out, err = run(
            capsys, "verify", "--in", str(sc_path), "--coloring", str(f_path),
            "--against", str(bad),
        )
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: line 1: bad header line: 'dim 3'"]

    def test_refine_cost_follows_the_colors_in_use(self, built, capsys):
        # without --class-cap, refine counts classes under the file's header
        tmp_path, sc_path = built
        f_path = tmp_path / "f.coloring"
        argv = ["color", "--in", str(sc_path), "--c1", "13", "--out", str(f_path), "--quiet"]
        assert main(argv) == 0
        text = f_path.read_text()
        stats = []
        for header in ("colors 13", "colors 1000000000"):
            f_path.write_text(text.replace("colors 13", header, 1))
            with time_limit(10):
                code, out, err = run(
                    capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
                    "--shape", "corridor", "--out", str(tmp_path / "g.coloring"), "--json",
                )
            assert code == 0 and err == ""
            stats.append(json.loads(out))
        small, huge = stats
        assert huge["colors_total"] == 10 ** 9 * huge["c2"]
        for key in ("S", "c2", "resamples", "ridge_patterns_unique"):
            assert huge[key] == small[key]

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


class TestNoOutputOnError:
    """A command that exits 2 has written nothing: it computes, then writes."""

    def test_color_with_too_few_colors(self, built, capsys):
        tmp_path, sc_path = built
        out = tmp_path / "f.coloring"
        code, stdout, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", "1", "--window", "0",
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: 1 colors cannot fill faces of size 2"]
        assert not out.exists()

    @pytest.mark.parametrize("codim", ["3", "-1"])
    def test_color_codim_out_of_range(self, built, capsys, codim):
        tmp_path, sc_path = built
        out = tmp_path / "f.coloring"
        code, stdout, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", "13", "--codim", codim,
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [f"error: codimension {codim} out of range for facet size 3"]
        assert not out.exists()

    def test_quotient_of_a_disconnected_complex(self, tmp_path, capsys):
        path = tmp_path / "two.cplx"
        path.write_text("dim 3 vertices 6\n1 2 3\n4 5 6\n")
        coloring = tmp_path / "f.coloring"
        coloring.write_text("colors 3\n1 1\n2 2\n3 3\n4 1\n5 2\n6 3\n")
        out, report = tmp_path / "q.cplx", tmp_path / "q.json"
        code, stdout, err = run(
            capsys, "quotient", "--in", str(path), "--coloring", str(coloring),
            "--out", str(out), "--report", str(report),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: graph is not connected"]
        assert not out.exists() and not report.exists()

    def test_quotient_report_in_a_missing_directory(self, tmp_path, capsys):
        # the quotient file is written first; the failed report write removes it
        path = tmp_path / "sc.cplx"
        path.write_text("dim 3 vertices 5\n1 2 3\n2 3 4\n3 4 5\n")
        coloring = tmp_path / "f.coloring"
        coloring.write_text("colors 5\n1 1\n2 2\n3 3\n4 4\n5 5\n")
        out, report = tmp_path / "q.cplx", tmp_path / "missing" / "q.json"
        code, stdout, err = run(
            capsys, "quotient", "--in", str(path), "--coloring", str(coloring),
            "--out", str(out), "--report", str(report),
        )
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    def test_labels_path_blocked_by_a_directory(self, tmp_path, capsys):
        # the complex is written first; the failed labels write removes it
        out = tmp_path / "b.cplx"
        (tmp_path / "b.cplx.labels").mkdir()
        code, stdout, err = run(
            capsys, "build", "boundary", "--n", "8", "--dim", "3",
            "--out", str(out), "--labels",
        )
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.cplx.labels"]

    def test_labels_rejected_before_building(self, tmp_path, capsys):
        # n = 2 < d would fail the build itself; the option is checked first
        out = tmp_path / "x"
        code, stdout, err = run(
            capsys, "build", "corridor", "--n", "2", "--dim", "3",
            "--out", str(out), "--labels",
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: --labels applies only to boundary complexes"]
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "option,value,token",
        [
            ("--seeds", "x", "x"),
            ("--dims", "3,x", "x"),
            ("--ns", "40,4.5", "4.5"),
            ("--c1s", "13,,y", "y"),
        ],
    )
    def test_non_integer_list_token_exit_2(self, capsys, option, value, token):
        code, out, err = run(capsys, "bench", option, value)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {option} needs integers, got {token!r}"]

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


class TestFacetlessComplex:
    def test_work_is_bounded_by_the_input(self, tmp_path, capsys):
        # the declared facet size is huge, but there is no facet to read
        path = tmp_path / "empty.cplx"
        path.write_text("dim 1000000000 vertices 4\n")
        coloring = tmp_path / "f.coloring"
        coloring.write_text("colors 2\n1 1\n2 2\n3 1\n4 2\n")
        with time_limit(5):
            code, out, err = run(capsys, "diameter", "--in", str(path))
            assert code == 2 and out == ""
            assert err.splitlines() == ["error: graph has no nodes"]
            code, out, err = run(
                capsys, "verify", "--in", str(path), "--coloring", str(coloring), "--json"
            )
        assert code == 0 and err == ""
        assert json.loads(out)["checks"] == {
            "connected": True,
            "pseudomanifold": True,
            "proper": True,
            "ridge_unique": True,
        }

    def test_refine_cost_does_not_follow_the_declared_dimension(self, tmp_path, capsys):
        # no facets, so no ridges: refining must not take powers of the size
        path = tmp_path / "empty.cplx"
        path.write_text("dim 10000000 vertices 4\n")
        coloring = tmp_path / "f.coloring"
        coloring.write_text("colors 2\n1 1\n2 2\n3 1\n4 2\n")
        with time_limit(1):
            code, out, err = run(
                capsys, "refine", "--in", str(path), "--coloring", str(coloring),
                "--shape", "corridor", "--out", str(tmp_path / "g.coloring"), "--json",
            )
        assert code == 0 and err == ""
        stats = json.loads(out)
        assert stats["t"] == 2 * 10 ** 14
        assert (stats["S"], stats["c2"], stats["resamples"]) == (0, 2, 0)
        assert stats["colors_total"] == 4 and stats["ridge_patterns_unique"]
