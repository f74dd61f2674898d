import json
from pathlib import Path

import numpy as np
import pytest

from rectfrac.cli import main
from rectfrac.weights import load_weight


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def cascade_file(tmp_path):
    out = tmp_path / "w.json"
    assert run(["gen-weight", "--kind", "cascade", "--dims", "1,1",
                "--depth", "4", "--rho", "2", "--seed", "11",
                "--out", out]) == 0
    return out


class TestGenWeight:
    def test_uniform_density(self, tmp_path):
        out = tmp_path / "u.json"
        assert run(["gen-weight", "--kind", "uniform", "--dims", "1,1",
                    "--depth", "3", "--out", out]) == 0
        w = load_weight(out)
        assert np.all(w.density == 1.0)

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["gen-weight", "--kind", "cascade", "--dims", "1",
                        "--depth", "4", "--rho", "1.5", "--seed", "3",
                        "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_params_exit_nonzero(self, tmp_path, capsys):
        code = run(["gen-weight", "--kind", "cascade", "--dims", "1",
                    "--depth", "4", "--rho", "9", "--seed", "0",
                    "--out", tmp_path / "x.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_out_rejected(self, capsys):
        assert run(["gen-weight", "--kind", "uniform", "--dims", "1",
                    "--depth", "3"]) == 2


class TestCheckWeight:
    def test_uniform_constants(self, tmp_path):
        wfile = tmp_path / "u.json"
        run(["gen-weight", "--kind", "uniform", "--dims", "1,1",
             "--depth", "3", "--out", wfile])
        rep = tmp_path / "rep.json"
        assert run(["check-weight", "--weight", wfile, "--eps", "0.5,1",
                    "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["doubling"]["value"] == pytest.approx(2.0)
        assert doc["reverse_doubling"]["value"] == pytest.approx(2.0)
        assert all(c["passed"] for c in doc["checks"])

    def test_cascade_margins_pass(self, cascade_file, tmp_path):
        rep = tmp_path / "rep.json"
        assert run(["check-weight", "--weight", cascade_file,
                    "--out", rep]) == 0

    def test_zeroed_cube_reports_infinite_doubling(self, tmp_path):
        from rectfrac import GridConfig, Weight, save_weight
        cfg = GridConfig((1,), 3)
        dens = np.ones(cfg.axis_cells)
        dens[:3] = 0.0
        save_weight(Weight(cfg, dens), tmp_path / "z.json")
        rep = tmp_path / "rep.json"
        run(["check-weight", "--weight", tmp_path / "z.json", "--out", rep])
        doc = json.loads(rep.read_text())
        assert doc["doubling"]["value"] == "inf"
        assert doc["doubling"]["witness"] is not None

    def test_missing_file_errors(self, tmp_path, capsys):
        assert run(["check-weight", "--weight", tmp_path / "nope.json"]) == 2


class TestFp:
    def test_hls_identity(self, cascade_file, tmp_path):
        rep = tmp_path / "fp.json"
        assert run(["fp", "--weight", cascade_file, "--alpha", "0.5",
                    "--p", "4/3", "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["report"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_general_mode(self, cascade_file, tmp_path):
        rep = tmp_path / "fp.json"
        assert run(["fp", "--weights", f"{cascade_file},{cascade_file}",
                    "--exponents", "2,2", "--kernel-seed", "5",
                    "--out", rep]) == 0

    def test_violated_relation_named(self, cascade_file, capsys):
        code = run(["fp", "--weight", cascade_file, "--alpha", "1.5",
                    "--p", "2"])
        assert code == 2
        assert "1/q = 1/p - alpha/N" in capsys.readouterr().err


class TestSweeps:
    def test_embed_ratio_check(self, cascade_file, tmp_path):
        rep = tmp_path / "em.json"
        assert run(["embed-norm", "--weights",
                    f"{cascade_file},{cascade_file}", "--exponents", "2,2",
                    "--kernel-seed", "3", "--depths", "2:3",
                    "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert all(row["ratio"] >= 1 - 1e-9 for row in doc["sweep"])
        for row in doc["sweep"]:
            assert set(row) == {"K", "c2", "c1_hat", "ratio", "seconds",
                                "sweeps", "converged"}
            assert isinstance(row["sweeps"], int) and row["sweeps"] >= 1
            assert isinstance(row["converged"], bool)

    def test_dense_kernel_budget_is_one_error_line(self, tmp_path, capsys,
                                                   monkeypatch):
        from rectfrac import (GridConfig, Weight, gen_cascade, operators,
                              save_weight)

        def no_rows(mu):
            raise AssertionError("rows computed past the budget")
        monkeypatch.setattr(operators, "_kernel_rows", no_rows)
        cfg = GridConfig((1, 1), 6)
        wfile = tmp_path / "hand.json"
        # a hand-made density carries no per-axis factors
        save_weight(Weight(cfg, gen_cascade(cfg, 2.0, 4).density), wfile)
        capsys.readouterr()
        code = run(["hls", "--weight", wfile, "--alpha", "0.5", "--p", "4/3",
                    "--form", "kernel", "--depths", "6",
                    "--out", tmp_path / "hls.json"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "10871635968 bytes" in err[0]

    def test_hls_csv_format(self, cascade_file, tmp_path):
        out = tmp_path / "hls.csv"
        assert run(["hls", "--weight", cascade_file, "--alpha", "0.5",
                    "--p", "4/3", "--depths", "2:3", "--format", "csv",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "K,c2,c1_hat,ratio,seconds"
        assert len(lines) == 3
        assert Path(str(out) + ".manifest.json").exists()

    def test_carleson(self, cascade_file, tmp_path):
        rep = tmp_path / "c.json"
        assert run(["carleson", "--weight", cascade_file, "--p", "2",
                    "--q", "4", "--depths", "2:3", "--out", rep]) == 0

    def test_csv_unavailable_for_json_only_commands(self, cascade_file,
                                                    capsys):
        code = run(["check-weight", "--weight", cascade_file,
                    "--format", "csv"])
        assert code == 2


class TestBadRanges:
    @pytest.fixture()
    def line_file(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen-weight", "--kind", "cascade", "--dims", "1",
                    "--depth", "5", "--rho", "2", "--seed", "1",
                    "--out", out]) == 0
        return out

    @pytest.mark.parametrize("cmd,depths", [
        (["hls", "--alpha", "0.5", "--p", "4/3"], "5:3"),
        (["embed-norm", "--exponents", "2,2"], "5:4"),
        (["carleson", "--p", "2", "--q", "4"], "5:4"),
        (["kernel-equiv", "--alpha", "0.5"], "5:4")])
    def test_empty_depth_range_is_one_error_line(self, line_file, capsys,
                                                 cmd, depths):
        src = ["--weights", f"{line_file},{line_file}"] \
            if cmd[0] == "embed-norm" else ["--weight", line_file]
        capsys.readouterr()
        code = run([cmd[0], *src, *cmd[1:], "--depths", depths])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: the depth range '{depths}' is empty"]

    @pytest.mark.parametrize("cmd", [
        ["hls", "--alpha", "0.5", "--p", "4/3"],
        ["embed-norm", "--exponents", "2,2"],
        ["carleson", "--p", "2", "--q", "4"],
        ["kernel-equiv", "--alpha", "0.5"]])
    def test_depth_below_one_is_one_error_line(self, line_file, capsys, cmd):
        src = ["--weights", f"{line_file},{line_file}"] \
            if cmd[0] == "embed-norm" else ["--weight", line_file]
        capsys.readouterr()
        code = run([cmd[0], *src, *cmd[1:], "--depths", "0:2"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: depths start at 1, got 0 in '0:2'"]

    @pytest.mark.parametrize("pairs", [0, -3])
    def test_pairs_below_one_refused(self, line_file, capsys, pairs):
        capsys.readouterr()
        code = run(["kernel-equiv", "--weight", line_file, "--alpha", "0.5",
                    "--pairs", pairs, "--depths", "4:5"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: --pairs must be at least 1, got {pairs}"]


class TestStudies:
    def test_shift_cover_clean(self, tmp_path, capsys):
        rep = tmp_path / "sc.json"
        assert run(["shift-cover", "--dim", "1", "--maxlevel", "4",
                    "--out", rep]) == 0
        doc = json.loads(rep.read_text())
        assert doc["report"]["failures"] == []
        assert doc["report"]["cubes_checked"] > 0
        assert "0 failures" in capsys.readouterr().err

    def test_kernel_equiv(self, cascade_file, tmp_path):
        rep = tmp_path / "ke.json"
        code = run(["kernel-equiv", "--weight", cascade_file, "--alpha",
                    "0.5", "--pairs", "60", "--depths", "4", "--out", rep])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["per_depth"]["4"]["pairs"] == 60


class TestDeterminism:
    def test_outputs_byte_identical_across_threads(self, cascade_file,
                                                   tmp_path):
        outs = []
        for i, threads in enumerate((1, 8)):
            rep = tmp_path / f"ke{i}.json"
            assert run(["kernel-equiv", "--weight", cascade_file,
                        "--alpha", "0.5", "--pairs", "50", "--depths", "4",
                        "--seed", "5", "--threads", threads,
                        "--out", rep]) == 0
            outs.append(rep.read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_has_no_timestamps(self, cascade_file, tmp_path):
        rep = tmp_path / "rep.json"
        run(["check-weight", "--weight", cascade_file, "--out", rep])
        manifest = json.loads(rep.read_text())["manifest"]
        assert set(manifest) == {"subcommand", "params", "seed", "version",
                                 "input_hashes"}
        assert manifest["subcommand"] == "check-weight"
