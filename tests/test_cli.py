import base64
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rectfrac
from rectfrac import GridConfig, cli, gen_power
from rectfrac.cli import build_parser, main
from rectfrac.weights import load_weight


def _edited(text, key, value=None):
    """The weight file ``text`` with ``key`` set to ``value``, or dropped."""
    doc = json.loads(text)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    return json.dumps(doc)


# invalid JSON, an undecodable payload and a missing field, each with the
# start of its refusal message
BROKEN_FILES = [
    (lambda t: t[:len(t) // 2], "malformed weight file"),
    (lambda t: _edited(t, "density", "not base64!"), "undecodable density"),
    (lambda t: _edited(t, "lattice"), "missing field 'lattice'")]


def run(args):
    return main([str(a) for a in args])


def _refuse(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_refuse)


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

    def test_format_refused_before_writing(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        assert run(["gen-weight", "--kind", "uniform", "--dims", "1",
                    "--depth", "3", "--out", out, "--format", "csv"]) == 2
        assert not out.exists()
        assert "unrecognized arguments: --format csv" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind,message", [
        ("power", "power weights need --exponents"),
        ("cascade", "cascade weights need --rho")])
    def test_kind_inputs_required(self, tmp_path, capsys, kind, message):
        out = tmp_path / "w.json"
        capsys.readouterr()
        code = run(["gen-weight", "--kind", kind, "--dims", "1",
                    "--depth", "3", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_power_density_and_factors(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["gen-weight", "--kind", "power", "--dims", "1,1",
                    "--exponents", "2,2", "--centers", "0.5,0.5",
                    "--depth", "4", "--out", out]) == 0
        w = load_weight(out)
        ref = gen_power(GridConfig((1, 1), 4), (2, 2), centers=(0.5, 0.5))
        assert w.density.tobytes() == ref.density.tobytes()
        assert len(w.factors) == len(ref.factors) == 2
        for a, b in zip(w.factors, ref.factors):
            assert a.tobytes() == b.tobytes()

    def test_power_needs_one_center_per_axis(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        capsys.readouterr()
        assert run(["gen-weight", "--kind", "power", "--dims", "1,1",
                    "--exponents", "2,2", "--centers", "0.5",
                    "--depth", "4", "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: need one center per axis"]
        assert not out.exists()


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

    def test_one_halving_scan_per_constant(self, cascade_file, tmp_path,
                                           monkeypatch):
        from rectfrac import conditions
        scans = []
        halving_scan = conditions._halving_scan

        def counted(w, name, minimize):
            scans.append(name)
            return halving_scan(w, name, minimize)

        monkeypatch.setattr(conditions, "_halving_scan", counted)
        rep = tmp_path / "rep.json"
        assert run(["check-weight", "--weight", cascade_file,
                    "--out", rep]) == 0
        monkeypatch.undo()
        assert scans == ["doubling", "reverse_doubling"]
        w = load_weight(cascade_file)
        cond = json.loads(rep.read_text())["condition_d"]
        assert list(cond) == ["0.25", "0.5", "1.0"]
        reverse = conditions.reverse_doubling_constant(w)
        for eps, doc in cond.items():
            expect = conditions.condition_d_constant(w, float(eps)).to_json()
            expect["tail_bound"] = conditions.tail_bound(reverse, float(eps))
            assert doc == json.loads(json.dumps(expect))

    def test_condition_d_through_public_constant(self, cascade_file,
                                                 tmp_path, monkeypatch):
        # bench/tracer.py counts the constant under this module name
        calls = []
        condition_d_constant = cli.condition_d_constant

        def counted(w, eps):
            calls.append(eps)
            return condition_d_constant(w, eps)

        monkeypatch.setattr(cli, "condition_d_constant", counted)
        rep = tmp_path / "rep.json"
        assert run(["check-weight", "--weight", cascade_file,
                    "--eps", "0.5,1", "--out", rep]) == 0
        assert calls == [0.5, 1.0]
        doc = strict_json(rep.read_text())
        assert "tail_bound" not in doc["doubling"]
        assert "tail_bound" not in doc["reverse_doubling"]
        assert all(entry["tail_bound"] > 0
                   for entry in doc["condition_d"].values())

    @pytest.mark.parametrize("eps,message", [
        ("0", "eps must be positive, got 0.0"),
        ("0.5,-1", "eps must be positive, got -1.0"),
        ("abc", "Invalid literal for Fraction: 'abc'")])
    def test_bad_eps_refused_before_any_scan(self, cascade_file, capsys,
                                             monkeypatch, eps, message):
        from rectfrac import conditions
        scans = []
        halving_scan = conditions._halving_scan

        def counted(w, name, minimize):
            scans.append(name)
            return halving_scan(w, name, minimize)

        monkeypatch.setattr(conditions, "_halving_scan", counted)
        capsys.readouterr()
        code = run(["check-weight", "--weight", cascade_file, "--eps", eps])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert scans == []

    def test_zeroed_cube_reports_infinite_doubling(self, tmp_path):
        from rectfrac import GridConfig, Weight, save_weight
        cfg = GridConfig((1,), 3)
        dens = np.ones(cfg.axis_cells)
        dens[:3] = 0.0
        save_weight(Weight(cfg, dens), tmp_path / "z.json")
        rep = tmp_path / "rep.json"
        run(["check-weight", "--weight", tmp_path / "z.json", "--out", rep])
        doc = strict_json(rep.read_text())
        assert doc["doubling"]["value"] == "inf"
        assert doc["doubling"]["witness"] is not None

    def test_missing_file_errors(self, tmp_path, capsys):
        assert run(["check-weight", "--weight", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize("field,value", [
        ("meta", ["kind", "cascade"]), ("depth", None), ("depth", True),
        ("lattice", 24), ("dims", "1,1"), ("dims", 2), ("dims", [True, 1]),
        ("version", True), ("version", 1.0), ("depth", 13), ("depth", 0),
        ("dims", [5, 1]), ("dims", []), ("lattice", [1, 1])])
    def test_malformed_field_is_one_error_line(self, cascade_file, capsys,
                                               field, value):
        doc = json.loads(cascade_file.read_text())
        doc[field] = value
        cascade_file.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["check-weight", "--weight", cascade_file])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {field} ")

    @pytest.mark.parametrize("text,start", BROKEN_FILES)
    def test_broken_file_is_one_error_line(self, cascade_file, capsys, text,
                                           start):
        cascade_file.write_text(text(cascade_file.read_text()))
        capsys.readouterr()
        code = run(["check-weight", "--weight", cascade_file])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith(f"error: {start}")

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_bad_density_is_one_error_line(self, cascade_file, capsys, bad):
        doc = json.loads(cascade_file.read_text())
        dens = load_weight(cascade_file).density.copy()
        dens.flat[5] = bad
        doc["density"] = base64.b64encode(
            dens.astype("<f8").tobytes()).decode("ascii")
        cascade_file.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["check-weight", "--weight", cascade_file])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: density must be finite and nonnegative"]


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

    @pytest.mark.parametrize("drop", ["--weight", "--p"])
    def test_hls_mode_inputs_required(self, cascade_file, capsys, drop):
        args = {"--weight": cascade_file, "--alpha": "0.5", "--p": "4/3"}
        del args[drop]
        capsys.readouterr()
        code = run(["fp", *itertools.chain(*args.items())])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: hls mode needs --weight and --p"]

    @pytest.mark.parametrize("drop", ["--weights", "--exponents"])
    def test_general_mode_inputs_required(self, cascade_file, capsys, drop):
        args = {"--weights": f"{cascade_file},{cascade_file}",
                "--exponents": "2,2"}
        del args[drop]
        capsys.readouterr()
        code = run(["fp", *itertools.chain(*args.items())])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: general mode needs --weights and --exponents"]

    @pytest.mark.parametrize("cmd", [["embed-norm", "--depths", "2:3"],
                                     ["fp"]])
    def test_repeated_weight_file_read_once(self, cascade_file, tmp_path,
                                            monkeypatch, cmd):
        loads = []

        def counted(path):
            loads.append(path)
            return load_weight(path)

        monkeypatch.setattr(cli, "load_weight", counted)
        assert run([cmd[0], "--weights", f"{cascade_file},{cascade_file}",
                    "--exponents", "2,2", *cmd[1:],
                    "--out", tmp_path / "rep.json"]) == 0
        assert loads == [str(cascade_file)]

    @pytest.mark.parametrize("cmd", [["embed-norm", "--depths", "2:3"],
                                     ["fp"]])
    def test_exponents_parsed_before_reading(self, tmp_path, capsys, cmd):
        missing = tmp_path / "missing.json"
        capsys.readouterr()
        code = run([cmd[0], "--weights", f"{missing},{missing}",
                    "--exponents", "abc", *cmd[1:]])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: Invalid literal for Fraction: 'abc'"]


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

    def test_repeated_weight_coarsened_once(self, tmp_path, monkeypatch):
        from rectfrac import weights
        w = tmp_path / "c.json"
        assert run(["gen-weight", "--kind", "cascade", "--dims", "1,1",
                    "--depth", "5", "--rho", "2", "--seed", "7",
                    "--out", w]) == 0
        built = []
        build = weights.build_mass_tree

        def counted(cfg, cell_masses):
            built.append(cfg.depth)
            return build(cfg, cell_masses)

        monkeypatch.setattr(weights, "build_mass_tree", counted)
        assert run(["embed-norm", "--weights", f"{w},{w}", "--exponents",
                    "2,2", "--depths", "3:5", "--max-sweeps", "2",
                    "--out", tmp_path / "em.json"]) == 0
        assert built == [5, 3, 4]  # the load, then one copy per depth

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

    def test_csv_to_stdout(self, cascade_file, capsys):
        capsys.readouterr()
        assert run(["hls", "--weight", cascade_file, "--alpha", "0.5",
                    "--p", "4/3", "--depths", "2:3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "K,c2,c1_hat,ratio,seconds"
        assert len(lines) == 3

    def test_kernel_form_checks_positive_estimates(self, cascade_file,
                                                    tmp_path):
        rep = tmp_path / "hls.json"
        assert run(["hls", "--weight", cascade_file, "--alpha", "0.5",
                    "--p", "4/3", "--form", "kernel", "--depths", "2:3",
                    "--out", rep]) == 0
        checks = json.loads(rep.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "positive_estimate[K=2]", "positive_estimate[K=3]"]
        assert all(c["passed"] and c["detail"] > 0 for c in checks)

    @pytest.mark.parametrize("cells,drift,zero_at", [
        ((5,), [0.0, 0.0], [2, 3, 4]), ((4, 5), [0.0, "inf"], [2, 3])])
    def test_hls_zero_bound_is_reported(self, tmp_path, capsys, cells,
                                        drift, zero_at):
        from rectfrac import GridConfig, Weight, save_weight
        cfg = GridConfig((1,), 4)
        dens = np.zeros(cfg.axis_cells)
        # all mass in one cell, or in two that share a cell up to K=3
        dens[list(cells)] = cfg.axis_cells / len(cells)
        wfile, rep = tmp_path / "w.json", tmp_path / "hls.json"
        save_weight(Weight(cfg, dens), wfile)
        code = run(["hls", "--weight", wfile, "--alpha", "0.5", "--p", "4/3",
                    "--form", "kernel", "--depths", "2:4", "--out", rep])
        assert code == 1
        doc = strict_json(rep.read_text())
        assert doc["successive_change"] == drift
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failed == [f"positive_estimate[K={K}]" for K in zero_at]
        assert "failed checks: positive_estimate[K=2]" in \
            capsys.readouterr().err

    def test_infinities_written_as_strings(self, tmp_path):
        rep = tmp_path / "r.json"
        args = build_parser().parse_args(
            ["shift-cover", "--dim", "1", "--maxlevel", "0", "--out", str(rep)])
        body = {"a": [math.inf, (-math.inf, 1.5)],
                "b": {"c": np.float64(math.inf)}}
        assert cli._emit(args, body, []) == 0
        doc = strict_json(rep.read_text())
        assert doc["a"] == ["inf", ["-inf", 1.5]] and doc["b"] == {"c": "inf"}
        rep.unlink()
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit(args, {"a": [math.nan]}, [])
        assert not rep.exists()

    def test_carleson(self, cascade_file, tmp_path):
        rep = tmp_path / "c.json"
        assert run(["carleson", "--weight", cascade_file, "--p", "2",
                    "--q", "4", "--depths", "2:3", "--out", rep]) == 0

    @pytest.mark.parametrize("params", [5, ["x"], None])
    def test_non_object_params_is_one_error_line(self, cascade_file, capsys,
                                                 params):
        doc = json.loads(cascade_file.read_text())
        doc["meta"]["params"] = params
        cascade_file.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run(["hls", "--weight", cascade_file, "--alpha", "0.5",
                    "--p", "4/3", "--depths", "2:3"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        meta = doc["meta"]
        assert err == [f"error: meta and its params must be objects, "
                       f"got {meta!r}"]

    def test_csv_unavailable_for_json_only_commands(self, cascade_file,
                                                    capsys):
        code = run(["check-weight", "--weight", cascade_file,
                    "--format", "csv"])
        assert code == 2


EMPTY_RANGES = [
    (["hls", "--alpha", "0.5", "--p", "4/3"], "5:3"),
    (["embed-norm", "--exponents", "2,2"], "5:4"),
    (["carleson", "--p", "2", "--q", "4"], "5:4"),
    (["kernel-equiv", "--alpha", "0.5"], "5:4")]


class TestBadRanges:
    @pytest.fixture()
    def line_file(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["gen-weight", "--kind", "cascade", "--dims", "1",
                    "--depth", "5", "--rho", "2", "--seed", "1",
                    "--out", out]) == 0
        return out

    @pytest.mark.parametrize("cmd,depths", EMPTY_RANGES)
    def test_empty_depth_range_is_one_error_line(self, line_file, capsys,
                                                 cmd, depths):
        src = ["--weights", f"{line_file},{line_file}"] \
            if cmd[0] == "embed-norm" else ["--weight", line_file]
        capsys.readouterr()
        code = run([cmd[0], *src, *cmd[1:], "--depths", depths])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: the depth range '{depths}' is empty"]

    @pytest.mark.parametrize("cmd,depths", EMPTY_RANGES)
    def test_empty_depth_range_refused_before_reading(self, tmp_path, capsys,
                                                      cmd, depths):
        missing = tmp_path / "missing.json"
        src = ["--weights", f"{missing},{missing}"] \
            if cmd[0] == "embed-norm" else ["--weight", missing]
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

    @pytest.mark.parametrize("opt,value,least", [("--max-sweeps", 0, 1),
                                                  ("--max-sweeps", -5, 1),
                                                  ("--tol", -0.5, 0)])
    @pytest.mark.parametrize("cmd", [
        ["hls", "--alpha", "0.5", "--p", "4/3"],
        ["embed-norm", "--exponents", "2,2"],
        ["carleson", "--p", "2", "--q", "4"]])
    def test_sweep_limits_are_one_error_line(self, line_file, capsys, cmd,
                                             opt, value, least):
        src = ["--weights", f"{line_file},{line_file}"] \
            if cmd[0] == "embed-norm" else ["--weight", line_file]
        capsys.readouterr()
        code = run([cmd[0], *src, *cmd[1:], "--depths", "4:5", opt, value])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: {opt} must be at least {least}, got {value}"]

    def test_depth_above_weight_is_one_error_line(self, line_file, capsys):
        capsys.readouterr()
        code = run(["kernel-equiv", "--weight", line_file, "--alpha", "0.5",
                    "--pairs", "10", "--depths", "4:6"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: depth 6 exceeds the weight depth 5"]

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

    def test_shift_cover_negative_level_refused(self, capsys):
        capsys.readouterr()
        code = run(["shift-cover", "--dim", "2", "--maxlevel", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: max_level must be at least 0, got -1"]

    def test_kernel_equiv(self, cascade_file, tmp_path):
        rep = tmp_path / "ke.json"
        code = run(["kernel-equiv", "--weight", cascade_file, "--alpha",
                    "0.5", "--pairs", "60", "--depths", "4", "--out", rep])
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["per_depth"]["4"]["pairs"] == 60

    def test_readme_square_recipe_fails_drift(self, tmp_path, capsys):
        w, rep = tmp_path / "w.json", tmp_path / "ke.json"
        assert run(["gen-weight", "--kind", "cascade", "--dims", "1,1",
                    "--depth", "5", "--rho", "2", "--seed", "7",
                    "--out", w]) == 0
        capsys.readouterr()
        code = run(["kernel-equiv", "--weight", w, "--alpha", "0.5",
                    "--pairs", "1000", "--depths", "4,5", "--out", rep])
        assert code == 1
        assert "failed checks: log_width_drift[K=5]" in \
            capsys.readouterr().err.splitlines()
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        assert not checks["log_width_drift[K=5]"]["passed"]
        assert checks["log_width_drift[K=5]"]["detail"] > 0.2

    def test_readme_line_recipe_passes(self, tmp_path):
        w, rep = tmp_path / "w.json", tmp_path / "ke.json"
        assert run(["gen-weight", "--kind", "cascade", "--dims", "1",
                    "--depth", "6", "--rho", "1.5", "--seed", "7",
                    "--out", w]) == 0
        assert run(["kernel-equiv", "--weight", w, "--alpha", "0.5",
                    "--pairs", "1000", "--depths", "4,5,6", "--seed", "2024",
                    "--out", rep]) == 0
        checks = json.loads(rep.read_text())["checks"]
        assert [c["name"] for c in checks] == [
            "ratio_interval_finite", "log_width_drift[K=5]",
            "log_width_drift[K=6]"]
        assert all(c["passed"] for c in checks)


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


SEEDED = {"gen-weight", "embed-norm", "hls", "carleson", "kernel-equiv"}
SWEEPS = {"embed-norm", "hls", "carleson"}


class TestParser:
    @pytest.mark.parametrize("cmd", [
        "gen-weight", "check-weight", "fp", "embed-norm", "hls", "carleson",
        "kernel-equiv", "shift-cover"])
    def test_help_lists_only_the_options_read(self, capsys, cmd):
        capsys.readouterr()
        assert run([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert ("--seed" in out) == (cmd in SEEDED)
        assert ("--format" in out) == (cmd in SWEEPS)
        assert "--threads" in out and "--out" in out

    @pytest.mark.parametrize("argv", [
        ["hls", "--bogus"], ["no-such-command"], [],
        ["shift-cover", "--dim", "1", "--maxlevel", "1", "--seed", "3"],
        ["shift-cover", "--dim", "1", "--maxlevel", "1", "--format", "json"],
        ["shift-cover", "--dim", "x", "--maxlevel", "1"],
        ["embed-norm", "--weights", "{w},{w}", "--exponents", "2,2",
         "--depths", "2:3", "--kernel-seed", "-99999999999999999999"],
        ["fp", "--weights", "{w},{w}", "--exponents", "2,2",
         "--kernel-seed", "99999999999999999999"],
        # a zero denominator or a float overflow in a number
        ["hls", "--weight", "{w}", "--alpha", "1/0", "--p", "4/3",
         "--depths", "2:3"],
        ["gen-weight", "--kind", "cascade", "--dims", "1", "--depth", "3",
         "--rho", "2/0", "--out", "{w}.new"],
        ["check-weight", "--weight", "{w}", "--eps", "1/0"],
        ["embed-norm", "--weights", "{w},{w}", "--exponents", "2,1e999",
         "--depths", "2:3"],
        ["fp", "--weight", "{w}", "--alpha", "1e400", "--p", "4/3"]])
    def test_refusal_returned_as_2(self, cascade_file, capsys, argv):
        capsys.readouterr()
        assert run([a.format(w=cascade_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert sum("error:" in line
                   for line in captured.err.splitlines()) == 1

    @pytest.mark.parametrize("argv,message", [
        (["hls", "--weight", "{w}", "--alpha", "1/0", "--p", "4/3",
          "--depths", "2:3"], "argument --alpha: not a finite number: '1/0'"),
        (["gen-weight", "--kind", "cascade", "--dims", "1", "--depth", "3",
          "--rho", "2/0", "--out", "{w}.new"],
         "argument --rho: not a finite number: '2/0'"),
        (["embed-norm", "--weights", "{w},{w}", "--exponents", "2,2",
          "--depths", "2:3", "--kernel-seed", "abc"],
         "argument --kernel-seed: kernel seed must be an integer, got 'abc'")])
    def test_parse_time_refusal_gives_its_reason(self, cascade_file, capsys,
                                                 argv, message):
        capsys.readouterr()
        assert run([a.format(w=cascade_file) for a in argv]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and errors[0].endswith(f"error: {message}")

    @pytest.mark.parametrize("argv", [
        ["fp", "--weights", "{m},{m}", "--exponents", "2,2"],
        ["embed-norm", "--weights", "{m},{m}", "--exponents", "2,2",
         "--depths", "2:3"]])
    @pytest.mark.parametrize("seed", ["99999999999999999999",
                                      str(2 ** 63), str(-2 ** 63 - 1)])
    def test_kernel_seed_refused_before_reading(self, tmp_path, capsys,
                                                argv, seed):
        missing = tmp_path / "missing.json"
        capsys.readouterr()
        assert run([a.format(m=missing) for a in argv] +
                   [f"--kernel-seed={seed}"]) == 2
        err = capsys.readouterr().err
        assert f"kernel seed must lie in [-2**63, 2**63), got {seed}" in err
        assert "missing.json" not in err

    @pytest.mark.parametrize("seed", [-2 ** 63, 2 ** 63 - 1])
    def test_kernel_seed_domain_ends_parsed(self, seed):
        args = build_parser().parse_args(
            ["fp", "--weights", "w.json", "--exponents", "2,2",
             f"--kernel-seed={seed}"])
        assert args.kernel_seed == seed

    def test_one_parser_shared_by_calls(self, cascade_file, tmp_path):
        # an option given to one call leaves the next call's default alone
        assert cli._parser() is cli._parser()
        assert build_parser() is not build_parser()
        sweeps = []
        for extra in (["--max-sweeps", "3"], []):
            rep = tmp_path / "hls.json"
            assert run(["hls", "--weight", cascade_file, "--alpha", "0.5",
                        "--p", "4/3", "--depths", "2:3", "--out", rep,
                        *extra]) == 0
            sweeps.append(strict_json(rep.read_text())
                          ["manifest"]["params"]["max_sweeps"])
        assert sweeps == [3, 200]

    def test_top_level_help_returns_0(self, capsys):
        assert run(["--help"]) == 0
        assert "shift-cover" in capsys.readouterr().out


def test_module_entry_point(cascade_file):
    """``python -m rectfrac`` runs a subcommand and exits with its status."""
    src = str(Path(rectfrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module(*args):
        return subprocess.run([sys.executable, "-m", "rectfrac", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = module("shift-cover", "--dim", "1", "--maxlevel", "1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["report"]["cubes_checked"] > 0
    refused = module("check-weight", "--weight", str(cascade_file),
                     "--format", "csv")
    assert refused.returncode == 2
    assert refused.stdout == ""
