import csv
import io
import json
import math
import pathlib

import pytest

from bucketing import cli, information
from bucketing.cli import dispatch
from bucketing.probmodel import bernoulli_matrix, make_matrix
from bucketing.simharness import cauchy_baseline


GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def replay_argv(header_line):
    """Rebuild the argv of a run from its echoed config header."""
    cfg = json.loads(header_line.removeprefix("# config "))
    argv = [cfg.pop("command")]
    for key, value in sorted(cfg.items()):
        if value is None:
            continue
        argv.extend([f"--{key.replace('_', '-')}", str(value)])
    return argv


class TestInfo:
    def test_mutual_information_reference(self, capsys):
        code, out, _ = run_cli(["info", "--p", "0.9", "--mu", "inf"], capsys)
        assert code == 0
        assert "0.3680642" in out

    def test_matrix_file_input(self, tmp_path, capsys):
        p = make_matrix([[0.5, 0.1], [0.1, 0.3]])
        path = tmp_path / "m.json"
        path.write_text(p.to_json())
        code, out, _ = run_cli(
            ["info", "--matrix", str(path), "--mu", "1"], capsys
        )
        assert code == 0
        lift = 0.3 / (0.4 * 0.4)
        value = float(next(l for l in out.splitlines()
                           if not l.startswith("#")))
        assert value == pytest.approx(math.log(lift), abs=1e-6)

    # (lambda0, lambda1, mu) of the info golden; the first three are
    # optimizer answers, the last a closed-form candidate
    GOLDEN_QUERIES = (("0.9", "0.9", "1"), ("0.8", "0.9", "2"),
                      ("0.7", "0.8", "inf"), ("0.9", "0.6", "0.5"))

    def test_info_golden_output(self, capsys):
        out = ""
        for l0, l1, mu in self.GOLDEN_QUERIES:
            code, text, _ = run_cli(
                ["info", "--p", "0.8", "--lambda0", l0, "--lambda1", l1,
                 "--mu", mu], capsys)
            assert code == 0
            out += text
        assert out.encode() == (GOLDEN / "info-bernoulli.txt").read_bytes()

    def test_missing_matrix_is_usage_error(self, capsys):
        code, _, _ = run_cli(["info", "--mu", "1"], capsys)
        assert code == 2

    def test_invalid_p_is_runtime_error(self, capsys):
        code, _, err = run_cli(["info", "--p", "1.5", "--mu", "1"], capsys)
        assert code == 1
        assert "error" in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(["info", "--p", "0.9", "--wat", "1"], capsys)[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            ["info", "--matrix", "/nonexistent.json", "--mu", "1"], capsys
        )
        assert code == 1


class TestSubcommands:
    def test_subconj_output(self, capsys):
        code, out, _ = run_cli(
            ["subconj", "--p", "0.9", "--lambda0", "0.5", "--lambda1", "0.5"],
            capsys,
        )
        assert code == 0
        assert "subconjugate true" in out

    def test_subconj_refutation(self, capsys):
        code, out, _ = run_cli(
            ["subconj", "--p", "0.9", "--lambda0", "1", "--lambda1", "1"],
            capsys,
        )
        assert code == 0
        assert "subconjugate false" in out
        assert "witness" in out

    def test_bound_starts_reach_frontier(self, tmp_path, monkeypatch, capsys):
        # direct_lower_bound calls subconjugate_frontier on every interior
        # direction; a matrix that is not binary symmetric has no ribbon,
        # so its frontier is bisected with I solves
        path = tmp_path / "m.json"
        path.write_text(make_matrix([[0.5, 0.1], [0.15, 0.25]]).to_json())
        real = information.subconjugate_frontier
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("n_starts"))
            return real(*args, **kwargs)

        monkeypatch.setattr(information, "subconjugate_frontier", spy)
        # the work_lower_bound grid would cost hundreds of 40-start solves
        monkeypatch.setattr(cli, "work_lower_bound", lambda *a, **k:
                            information.WorkBound(0.0, 1.0, 1.0, 1.0))
        solves = []
        real_solve = information.info_numeric

        def counting(*args, **kwargs):
            solves.append(kwargs.get("n_starts"))
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(information, "info_numeric", counting)
        code, _, _ = run_cli(
            ["bound", "--matrix", str(path), "--n0", "1000", "--n1", "1000",
             "--S", "0.9", "--directions", "3", "--starts", "40"],
            capsys,
        )
        assert code == 0
        assert seen == [40]
        assert solves and set(solves) == {40}

    def test_bound_golden_output(self, tmp_path, capsys):
        # direct_work_bound is S * n^(1/p) = 0.9 * 1000^(1/0.9): the diagonal
        # of the fan meets the ribbon at lambda0 = lambda1 = 1/(2p)
        argv = ["bound", "--p", "0.9", "--n0", "1000", "--n1", "1000",
                "--S", "0.9", "--directions", "5"]
        golden = (GOLDEN / "bound-bernoulli.txt").read_bytes()
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.encode() == golden
        out_path = tmp_path / "bound.txt"
        code, _, _ = run_cli(argv + ["--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_bytes().splitlines(keepends=True)
        assert lines[0].startswith(b"# config ")
        assert lines[1:] == golden.splitlines(keepends=True)[1:]

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_bound_needs_a_block(self, blocks, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("I solved for an empty block list")

        monkeypatch.setattr(information, "info_numeric", no_solve)
        code, out, err = run_cli(
            ["bound", "--p", "0.9", "--n0", "1000", "--n1", "1000",
             "--S", "0.9", "--blocks", blocks],
            capsys,
        )
        assert code == 1
        assert "error" in err
        assert out == ""

    def test_conjecture_clean(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "--p-grid", "0.6:0.8:0.1", "--resolution", "12"],
            capsys,
        )
        assert code == 0
        assert "violations: 0" in out

    @pytest.mark.parametrize("grid", ["2:3:0.5", "0.2"])
    def test_conjecture_rejects_p_outside_range(self, grid, capsys):
        code, out, err = run_cli(
            ["conjecture", "--p-grid", grid, "--resolution", "12"], capsys)
        assert code == 1
        assert "error" in err
        assert out == ""

    def test_baseline_lists_exponents(self, capsys):
        code, out, _ = run_cli(["baseline", "--p", "0.8"], capsys)
        assert code == 0
        assert "classical 1.321928" in out
        assert "improved 1.25" in out

    def test_baseline_cauchy_samples(self, capsys):
        code, out, _ = run_cli(
            ["baseline", "--p", "0.9", "--cauchy-samples", "20000",
             "--seed", "3"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == (
            f"cauchy_sign_agreement {cauchy_baseline(20000, 3)!r}")

    def test_baseline_p_one_is_usage_error(self, capsys):
        code, out, _ = run_cli(["baseline", "--p", "1.0"], capsys)
        assert code == 2
        assert out == ""

    def test_sweep_golden_output(self, capsys):
        # every row is at lambda0 = lambda1 = 1, answered from the exact
        # candidates
        code, out, _ = run_cli(["sweep", "--p", "0.9"], capsys)
        assert code == 0
        golden = GOLDEN / "sweep-bernoulli.txt"
        assert out.encode() == golden.read_bytes()

    def test_sweep_csv_shape(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--p", "0.8", "--mu-grid", "0:1:0.5,inf",
             "--starts", "4"],
            capsys,
        )
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "lambda0,lambda1,mu,value,method"
        assert len(body) == 1 + 4  # mu in {0, 0.5, 1, inf}

    def test_bad_grid_is_error(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--p", "0.8", "--mu-grid", "1:0:-1"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["sweep", "--p", "0.9", "--lambda0-grid", "0:nan:0.5"],
        ["sweep", "--p", "0.9", "--lambda0-grid", "nan:1:0.5"],
        ["sweep", "--p", "0.9", "--mu-grid", "0:1:nan"],
        ["sweep", "--p", "0.9", "--lambda1-grid", "0:1:inf"],
        ["conjecture", "--p-grid", "0.55:inf:0.1", "--resolution", "12"],
        ["conjecture", "--p-grid=-inf:0.9:0.1", "--resolution", "12"],
    ], ids=["nan-hi", "nan-lo", "nan-step", "inf-step", "inf-hi", "inf-lo"])
    def test_non_finite_grid_is_error(self, argv, capsys):
        # a nan or infinite hi used to loop forever, and a nan lo grew
        # the grid until memory ran out
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "finite" in err
        assert out == ""

    def test_tiny_step_grid_is_error(self, capsys):
        # 10^12 points would be appended one at a time until memory ran
        # out; the cap refuses the grid before building any of it
        code, out, err = run_cli(
            ["sweep", "--p", "0.9", "--lambda0-grid", "0:1:1e-12"], capsys)
        assert code == 1
        assert f"more than {cli.GRID_MAX_POINTS} points" in err
        assert out == ""

    def test_sweep_mu_inf_spellings(self, capsys):
        bodies = []
        for grid in ("0:1:0.5,inf", "0:1:0.5, INF"):
            code, out, _ = run_cli(["sweep", "--p", "0.9", "--mu-grid", grid],
                                   capsys)
            assert code == 0
            bodies.append([l for l in out.splitlines()
                           if not l.startswith("#")])
        assert bodies[0] == bodies[1]
        assert bodies[0][-1].split(",")[2] == "inf"


class TestSimulate:
    ARGS = [
        "simulate", "--code", "shell", "--d", "12", "--d0", "7",
        "--p", "0.9", "--eps", "0.1", "--trials", "400", "--seed", "42",
    ]

    def test_csv_contents(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        code, _, _ = run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# config ")
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        assert len(rows) == 1
        assert rows[0]["kind"] == "shell"
        assert int(rows[0]["T"]) == 13
        assert float(rows[0]["empirical_S"]) >= 0.8

    def test_byte_identical_repeat(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        first = out_path.read_bytes()
        run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert out_path.read_bytes() == first

    def test_header_replay_reproduces_output(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        first = out_path.read_bytes()
        header = out_path.read_text().splitlines()[0]
        code, _, _ = run_cli(replay_argv(header), capsys)
        assert code == 0
        assert out_path.read_bytes() == first

    @pytest.mark.parametrize("t_flag, header_t, buckets", [
        ([], None, 4), (["--T", "0"], 0, 0),
    ])
    def test_classical_draws(self, t_flag, header_t, buckets, capsys):
        # one draw of k = 2 coordinates is 4 buckets; --T 0 is no draw
        code, out, _ = run_cli(
            ["simulate", "--code", "classical", "--d", "8", "--k", "2",
             "--n0", "4", "--n1", "4", "--p", "0.9", "--trials", "20",
             *t_flag], capsys)
        assert code == 0
        lines = out.splitlines()
        assert json.loads(lines[0].removeprefix("# config "))["T"] == header_t
        [row] = csv.DictReader(io.StringIO("\n".join(lines[1:])))
        assert int(row["T"]) == buckets
        if not buckets:
            assert (row["successes"], row["mean_comparisons"],
                    row["predicted_W"]) == ("0", "0.0", "0.0")

    def test_classical_scale_golden_output(self, capsys):
        # 10^4 points per side in 65536 buckets: the regime where
        # comparisons are counted from per-bucket counts
        code, out, _ = run_cli(
            ["simulate", "--code", "classical", "--d", "64", "--k", "13",
             "--T", "8", "--n0", "10000", "--n1", "10000", "--p", "0.9",
             "--trials", "2", "--seed", "5"], capsys)
        assert code == 0
        golden = GOLDEN / "simulate-classical-scale.txt"
        assert out.encode() == golden.read_bytes()

    def test_out_rewrites_longer_file(self, tmp_path, capsys):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        payload = out_path.read_bytes()
        out_path.write_bytes(b"x" * (3 * len(payload)))
        run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        assert out_path.read_bytes() == payload

    def test_out_to_new_path_and_device(self, tmp_path, capsys):
        code, expected, _ = run_cli(self.ARGS, capsys)
        assert code == 0
        out_path = tmp_path / "new" / "run.csv"
        out_path.parent.mkdir()
        run_cli(self.ARGS + ["--out", str(out_path)], capsys)
        written = out_path.read_text().splitlines()
        assert written[1:] == expected.splitlines()[1:]
        code, out, err = run_cli(self.ARGS + ["--out", "/dev/null"], capsys)
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize("n0, n1", [("0", "0"), ("0", "4"), ("4", "0")])
    def test_empty_point_set_is_error(self, n0, n1, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.argv", ["bucketing", "simulate", "--code", "classical",
                         "--d", "8", "--k", "2", "--n0", n0, "--n1", n1,
                         "--p", "0.9", "--trials", "3"])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        captured = capsys.readouterr()
        assert exit_info.value.code == 1
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_bucket_ids_beyond_int64_are_error(self, capsys):
        # T = 2 * 2^62 bucket ids do not fit in int64
        code, out, err = run_cli(
            ["simulate", "--code", "classical", "--d", "64", "--k", "62",
             "--T", "2", "--p", "0.9", "--n0", "50", "--n1", "50",
             "--trials", "3", "--seed", "1"],
            capsys,
        )
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    def test_typeclass_from_p_or_matrix(self, tmp_path, capsys):
        # --p 0.9 and a --matrix file holding B0.9 build the same one-block
        # code and give the same row but for the p column
        path = tmp_path / "b09.json"
        path.write_text(bernoulli_matrix(0.9).to_json())
        rows = []
        for source in (["--p", "0.9"], ["--matrix", str(path)]):
            code, out, _ = run_cli(
                ["simulate", "--code", "typeclass", "--d", "8",
                 "--trials", "20", "--seed", "3", *source], capsys)
            assert code == 0
            [row] = csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
            rows.append(row)
        assert rows[0].pop("p") == "0.9"
        assert rows[1].pop("p") == "matrix"
        assert rows[0] == rows[1]
        assert (rows[0]["kind"], rows[0]["T"]) == ("typeclass", "1")

    def test_full_space_default_n(self, capsys):
        # one bucket holding every point: the default n is 1 / P(bucket)
        code, out, _ = run_cli(
            ["simulate", "--code", "full", "--d", "6", "--p", "0.9",
             "--trials", "5"], capsys)
        assert code == 0
        [row] = csv.DictReader(io.StringIO(out.split("\n", 1)[1]))
        assert (row["kind"], row["n0"], row["n1"]) == ("full_space", "1", "1")
        assert (row["predicted_S"], row["predicted_W"]) == ("1.0", "1.0")

    def test_classical_requires_k(self, capsys):
        code, _, _ = run_cli(
            ["simulate", "--code", "classical", "--d", "8", "--p", "0.9"],
            capsys,
        )
        assert code == 2
