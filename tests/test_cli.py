import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import corridors
from corridors import pipeline, read_coloring, read_complex
from corridors.bounds import E
from corridors.cli import build_parser, main
from corridors.pipeline import DEFAULT_MAX_RESAMPLES, DEFAULT_RETRIES
from conftest import address_space_cap, time_limit

# c1 values the free color list cannot index; a c1 that fits in sys.maxsize
# but not in memory is never run, since the list would be allocated
HUGE_C1 = [str(sys.maxsize + 1), "99999999999999999999"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usage_error(capsys, *argv):
    """(exit code, last stderr line) of argv that argparse refuses."""
    with pytest.raises(SystemExit) as exited:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exited.value.code, captured.err.splitlines()[-1]


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

    @pytest.mark.parametrize("kind", ["corridor", "boundary"])
    def test_vertex_count_past_2_63_exit_2(self, tmp_path, capsys, kind):
        # array('q') columns cannot hold the vertices, so nothing is allocated
        out = tmp_path / "x.cplx"
        with address_space_cap(), time_limit(1):
            code, stdout, err = run(
                capsys, "build", kind, "--n", str(2**63), "--dim", "3", "--out", str(out),
            )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [f"error: vertex count must be below 2**63, got {2**63}"]
        assert not out.exists()

    def test_vertex_count_past_memory_exit_2(self, tmp_path):
        # a count below 2**63 whose columns do not fit in memory, run in a
        # child whose address space is capped at 512 MiB, where the column
        # allocation fails within seconds
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29)); "
            "sys.path.insert(0, sys.argv[1]); "
            "from corridors.cli import main; "
            "sys.exit(main(sys.argv[2:]))"
        )
        src = str(Path(corridors.__file__).resolve().parent.parent)
        argv = ["build", "corridor", "--n", str(2**63 - 1), "--dim", "3", "--out", "x.cplx"]
        done = subprocess.run(
            [sys.executable, "-c", code, src, *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")
        assert not (tmp_path / "x.cplx").exists()


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

    @pytest.mark.parametrize("cap", [10 ** 50, 10 ** 400], ids=["1e50", "1e400"])
    def test_refine_with_a_huge_class_cap(self, built, capsys, cap):
        tmp_path, sc_path = built
        f_path = tmp_path / "f.coloring"
        argv = ["color", "--in", str(sc_path), "--c1", "13", "--out", str(f_path), "--quiet"]
        assert main(argv) == 0
        with time_limit(10):
            code, out, err = run(
                capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
                "--shape", "corridor", "--class-cap", str(cap),
                "--out", str(tmp_path / "g.coloring"), "--json",
            )
        assert code == 0 and err == ""
        stats = json.loads(out)
        assert stats["S"] == cap and stats["ridge_patterns_unique"]
        c2 = stats["c2"]
        assert c2 ** 2 >= E * (2 * 18 * cap + 1) > (c2 - 1) ** 2

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

    def test_refine_rejects_a_short_coloring(self, built, capsys):
        # counting the classes for S would index past the coloring
        tmp_path, sc_path = built
        f_path = tmp_path / "short.coloring"
        lines = ["colors 13"] + [f"{v} {(v - 1) % 13 + 1}" for v in range(1, 60)]
        f_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "g.coloring"
        code, stdout, err = run(
            capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
            "--shape", "corridor", "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: coloring covers 59 vertices, complex has 60"]
        assert not out.exists()

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


    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
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

    def test_comment_after_the_vertices_is_a_bad_line(self, tmp_path, capsys):
        # "#" opens a comment only as the first token of a line
        path = tmp_path / "bad.cplx"
        path.write_text("dim 3 vertices 5\n1 2 3 # x\n2 3 4\n")
        code, out, err = run(capsys, "diameter", "--in", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: line 2: expected integers, got '1 2 3 # x'"]

    def test_crlf_copies_with_a_comment_quotient_identically(self, tmp_path, capsys):
        def path(name):
            return str(tmp_path / name)

        for argv in (
            ["build", "corridor", "--n", "30", "--dim", "4", "--out", path("sc.cplx")],
            ["build", "boundary", "--n", "30", "--dim", "3", "--out", path("bd.cplx")],
            ["color", "--in", path("sc.cplx"), "--codim", "2", "--c1", "13",
             "--seed", "1", "--out", path("f.coloring")],
            ["refine", "--in", path("bd.cplx"), "--coloring", path("f.coloring"),
             "--shape", "boundary", "--seed", "1", "--out", path("g.coloring")],
        ):
            assert main(argv) == 0
        for name in ("bd.cplx", "g.coloring"):
            text = (tmp_path / name).read_text()
            (tmp_path / f"crlf-{name}").write_bytes(
                ("# a copy with CRLF line ends\n" + text).replace("\n", "\r\n").encode()
            )
        for prefix in ("", "crlf-"):
            assert main([
                "quotient", "--in", path(f"{prefix}bd.cplx"),
                "--coloring", path(f"{prefix}g.coloring"),
                "--out", path(f"{prefix}q.cplx"), "--report", path(f"{prefix}q.json"),
            ]) == 0
        capsys.readouterr()
        for name in ("q.cplx", "q.json"):
            assert (tmp_path / f"crlf-{name}").read_bytes() == (tmp_path / name).read_bytes()


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

    @pytest.mark.parametrize("c1", HUGE_C1)
    def test_color_with_c1_beyond_sys_maxsize(self, built, capsys, c1):
        tmp_path, sc_path = built
        out = tmp_path / "f.coloring"
        code, stdout, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", c1, "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [f"error: need c1 <= {sys.maxsize}, got {c1}"]
        assert not out.exists()

    def test_color_with_c1_beyond_memory(self, built, capsys):
        tmp_path, sc_path = built
        out = tmp_path / "f.coloring"
        code, stdout, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", str(sys.maxsize),
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [
            f"error: no memory for a list of c1 = {sys.maxsize} colors"
        ]
        assert not out.exists()

    def test_color_with_a_negative_window(self, built, capsys):
        tmp_path, sc_path = built
        out = tmp_path / "f.coloring"
        code, stdout, err = run(
            capsys, "color", "--in", str(sc_path), "--c1", "13", "--window", "-1",
            "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: window must be nonnegative, got -1"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value,message",
        [
            # refine names its own S, not the t and S of lll_target_colors
            ("--class-cap", "-1", "S must be nonnegative"),
            ("--c2", "0", "need at least one refinement color, got 0"),
            ("--max-resamples", "-1", "resample cap must be nonnegative"),
        ],
    )
    def test_refine_parameter_out_of_range(self, built, capsys, option, value, message):
        tmp_path, sc_path = built
        f_path, out = tmp_path / "f.coloring", tmp_path / "fg.coloring"
        argv = ["color", "--in", str(sc_path), "--c1", "13", "--out", str(f_path), "--quiet"]
        assert main(argv) == 0
        code, stdout, err = run(
            capsys, "refine", "--in", str(sc_path), "--coloring", str(f_path),
            "--shape", "corridor", option, value, "--out", str(out),
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [f"error: {message}"]
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

    @pytest.mark.parametrize("report", ["q.cplx", "./q.cplx"])
    def test_quotient_out_and_report_naming_one_file(
        self, tmp_path, capsys, monkeypatch, report
    ):
        # the report would replace the quotient, so neither is written
        monkeypatch.chdir(tmp_path)
        Path("sc.cplx").write_text("dim 3 vertices 5\n1 2 3\n2 3 4\n3 4 5\n")
        Path("f.coloring").write_text("colors 5\n1 1\n2 2\n3 3\n4 4\n5 5\n")
        code, stdout, err = run(
            capsys, "quotient", "--in", "sc.cplx", "--coloring", "f.coloring",
            "--out", "q.cplx", "--report", report,
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == [f"error: two outputs name one file: q.cplx, {report}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.coloring", "sc.cplx"]

    def test_clashing_outputs_refused_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(
            capsys, "quotient", "--in", "missing.cplx", "--coloring", "missing.coloring",
            "--out", "q.cplx", "--report", "q.cplx",
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: two outputs name one file: q.cplx, q.cplx"]
        assert list(tmp_path.iterdir()) == []

    def test_labels_on_the_complex_refused_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        # n = 4 is too small for a boundary; the outputs are checked first
        monkeypatch.chdir(tmp_path)
        Path("b.cplx.labels").symlink_to("b.cplx")
        code, stdout, err = run(
            capsys, "build", "boundary", "--n", "4", "--dim", "3",
            "--out", "b.cplx", "--labels",
        )
        assert code == 2 and stdout == ""
        assert err.splitlines() == ["error: two outputs name one file: b.cplx, b.cplx.labels"]
        assert [p.name for p in tmp_path.iterdir()] == ["b.cplx.labels"]

    def test_quotient_out_on_a_symlink_loop(self, tmp_path, capsys, monkeypatch):
        # the duplicate check must leave the loop to the write's OSError
        monkeypatch.chdir(tmp_path)
        Path("a").symlink_to("b")
        Path("b").symlink_to("a")
        Path("sc.cplx").write_text("dim 3 vertices 5\n1 2 3\n2 3 4\n3 4 5\n")
        Path("f.coloring").write_text("colors 5\n1 1\n2 2\n3 3\n4 4\n5 5\n")
        code, stdout, err = run(
            capsys, "quotient", "--in", "sc.cplx", "--coloring", "f.coloring",
            "--out", "a", "--report", "q.json",
        )
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not Path("q.json").exists()

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

    @pytest.mark.parametrize("method", ["ifub", "double-sweep"])
    def test_pair_excludes_method(self, built, capsys, method):
        _, sc_path = built
        code, err = usage_error(
            capsys, "diameter", "--in", str(sc_path), "--pair", "0", "57", "--method", method,
        )
        assert code == 2
        assert err.endswith("error: argument --method: not allowed with argument --pair")

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

    def test_negative_vertex_count_names_it(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "-5", "--dim", "3")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: vertex count must be nonnegative, got -5"]

    @pytest.mark.parametrize("n,dim", [(10 ** 200, 3), (10 ** 40, 12)], ids=["d3", "d12"])
    def test_bounds_past_the_float_range(self, capsys, n, dim):
        code, out, err = run(capsys, "bounds", "--n", str(n), "--dim", str(dim))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: bounds at n={n}, d={dim} exceed the float range"
        ]


class TestComplexFileFaults:
    """A middle vertex out of range is refused with the facet scan's message,
    in a short file and past the first 4096 facets of a long one."""

    @pytest.mark.parametrize("at", [1, 4500], ids=["short", "long"])
    @pytest.mark.parametrize("middle", ["0", "-1", "n+1"])
    def test_middle_vertex_out_of_range(self, tmp_path, capsys, at, middle):
        n = at + 3
        facets = [[i, i + 1, i + 2] for i in range(1, n - 1)]
        facets[at][1] = {"0": 0, "-1": -1, "n+1": n + 1}[middle]
        path = tmp_path / "bad.cplx"
        path.write_text(
            f"dim 3 vertices {n}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in facets)
        )
        code, out, err = run(capsys, "diameter", "--in", str(path))
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: facet {tuple(facets[at])} is not strictly increasing"
        ]


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

    @pytest.mark.parametrize("c1", HUGE_C1)
    def test_c1_beyond_sys_maxsize_exit_2(self, capsys, c1):
        code, out, err = run(
            capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "10",
            "--c1", c1, "--seed", "0",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: need c1 <= {sys.maxsize}, got {c1}"]

    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    def test_c1_beyond_memory_exit_2(self, capsys, mode):
        code, out, err = run(
            capsys, "pipeline", "--mode", mode, "--dim", "3", "--n", "10",
            "--c1", str(sys.maxsize), "--seed", "0",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: no memory for a list of c1 = {sys.maxsize} colors"
        ]

    @pytest.mark.parametrize("mode", ["simplicial", "pseudomanifold"])
    def test_vertex_count_past_2_63_exit_2(self, capsys, mode):
        with address_space_cap(), time_limit(1):
            code, out, err = run(
                capsys, "pipeline", "--mode", mode, "--dim", "3", "--n", str(2**63),
                "--c1", "13",
            )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: vertex count must be below 2**63, got {2**63}"]

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

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_boundary_too_small_exit_2(self, capsys, n):
        code, out, err = run(
            capsys, "pipeline", "--mode", "pseudomanifold", "--dim", "3", "--n", n,
            "--c1", "13",
        )
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: need at least 5 vertices, got {n}"]

    @pytest.mark.parametrize("epsilon", ["1e45", "1e308"])
    def test_huge_epsilon_exit_0(self, capsys, epsilon):
        with time_limit(10):
            code, out, err = run(
                capsys, "pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40",
                "--c1", "13", "--epsilon", epsilon, "--json",
            )
        assert code == 0 and err == ""
        assert json.loads(out)["ok"] is True

    def test_pseudomanifold_run_exit_0(self, capsys):
        code, _, _ = run(
            capsys, "pipeline", "--mode", "pseudomanifold", "--dim", "3", "--n", "12",
            "--c1", "13", "--seed", "1", "--quiet",
        )
        assert code == 0


def test_parser_defaults_are_the_library_constants():
    assert (DEFAULT_MAX_RESAMPLES, DEFAULT_RETRIES) == (10 ** 6, 10)
    parser = build_parser()
    run_args = parser.parse_args(
        ["pipeline", "--mode", "simplicial", "--dim", "3", "--n", "40", "--c1", "13"]
    )
    assert run_args.max_resamples == DEFAULT_MAX_RESAMPLES
    assert run_args.retries == DEFAULT_RETRIES
    refine_args = parser.parse_args(
        ["refine", "--in", "x", "--coloring", "y", "--shape", "corridor", "--out", "z"]
    )
    assert refine_args.max_resamples == DEFAULT_MAX_RESAMPLES


# the shared options each command reads; 20 settable values in all
SHARED_OPTIONS = {
    "build": {"--quiet"},
    "color": {"--quiet", "--json", "--seed"},
    "refine": {"--quiet", "--json", "--seed"},
    "quotient": {"--quiet", "--json"},
    "verify": {"--quiet", "--json"},
    "diameter": {"--quiet", "--json"},
    "bounds": {"--quiet", "--json"},
    "pipeline": {"--quiet", "--json", "--seed"},
    "bench": {"--quiet", "--json"},
}


def test_each_command_takes_only_the_shared_options_it_reads():
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands) == set(SHARED_OPTIONS)
    for name, command in commands.items():
        options = {opt for action in command._actions for opt in action.option_strings}
        assert options & {"--quiet", "--json", "--seed"} == SHARED_OPTIONS[name], name
    assert sum(map(len, SHARED_OPTIONS.values())) == 20


BUILD = ["build", "boundary", "--n", "6", "--dim", "3", "--out", "x"]
UNREAD_OPTIONS = [
    (BUILD, ["--json"]),
    (BUILD, ["--seed", "1"]),
    (["quotient", "--in", "x", "--coloring", "y", "--out", "z"], ["--seed", "1"]),
    (["verify", "--in", "x"], ["--seed", "1"]),
    (["diameter", "--in", "x"], ["--seed", "1"]),
    (["bounds", "--n", "10", "--dim", "3"], ["--seed", "1"]),
]


@pytest.mark.parametrize(
    "argv,unread", UNREAD_OPTIONS, ids=[f"{a[0]} {u[0]}" for a, u in UNREAD_OPTIONS]
)
def test_unread_shared_option_exits_2(capsys, argv, unread):
    code, err = usage_error(capsys, *argv, *unread)
    assert code == 2 and err.endswith(f"error: unrecognized arguments: {' '.join(unread)}")


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

    @pytest.mark.parametrize(
        "option,value",
        [("--seeds", ""), ("--dims", ","), ("--ns", ""), ("--c1s", ",,")],
    )
    def test_empty_list_exit_2(self, capsys, option, value):
        # a grid without cells is refused, not run as an empty table
        code, out, err = run(capsys, "bench", option, value)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: {option} needs at least one integer"]

    def test_seed_is_read_as_seeds(self, capsys):
        # bench has no --seed of its own, so argparse takes it for --seeds
        code, out, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "20", "--c1s", "13", "--seed", "3", "--json",
        )
        assert code == 0
        assert [row["seed"] for row in json.loads(out)["rows"]] == [3]

    def test_jobs_is_not_an_option(self, capsys):
        # the cells run in order in one process
        code, err = usage_error(capsys, "bench", "--jobs", "2")
        assert code == 2 and err.endswith("error: unrecognized arguments: --jobs 2")

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

    def test_window_excluding_every_color_fails_its_cell(self, capsys, monkeypatch):
        # bench takes the default window, so widen the default to all colors
        monkeypatch.setattr(pipeline, "default_window", lambda dim_facet: 13)
        code, out, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "40", "--c1s", "13", "--seeds", "0",
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            "cell 0: precondition-failed: window 13 excludes all 13 colors"
        )

    def test_c1_beyond_memory_fails_its_cell(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "10", "--c1s", str(sys.maxsize),
            "--seeds", "0",
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            f"cell 0: precondition-failed: no memory for a list of c1 = {sys.maxsize} colors"
        )

    @pytest.mark.parametrize("c1", HUGE_C1)
    def test_c1_beyond_sys_maxsize_fails_its_cell(self, capsys, c1):
        code, out, _ = run(
            capsys, "bench", "--dims", "3", "--ns", "10", "--c1s", c1, "--seeds", "0",
        )
        assert code == 0
        assert out.splitlines()[-1] == (
            f"cell 0: precondition-failed: need c1 <= {sys.maxsize}, got {c1}"
        )


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

    def test_pair_distance_names_the_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.cplx"
        path.write_text("dim 3 vertices 4\n")
        code, out, err = run(capsys, "diameter", "--in", str(path), "--pair", "0", "0")
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: graph has no nodes"]

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
