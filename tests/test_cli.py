import json
import subprocess
import sys

import numpy as np
import pytest

from jsrkit import _kernels
from jsrkit.cli import load_matrix_set, main

import oracles


def write_set(path, mats, name=None, im=None):
    d = len(mats[0])
    entries = []
    for k, m in enumerate(mats):
        e = {"re": [[float(x) for x in row] for row in m]}
        if im is not None:
            e["im"] = [[float(x) for x in row] for row in im[k]]
        entries.append(e)
    obj = {"dim": d, "matrices": entries}
    if name is not None:
        obj["name"] = name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def golden_file(tmp_path):
    return write_set(tmp_path / "golden.json",
                     [[[1, 1], [0, 1]], [[1, 0], [1, 1]]], name="golden")


@pytest.fixture()
def hand_file(tmp_path):
    return write_set(tmp_path / "hand.json",
                     [[[2, 5], [0, 1]], [[1, 7], [0, 3]]], name="hand")


@pytest.fixture()
def diag_file(tmp_path):
    return write_set(tmp_path / "diag.json",
                     [[[2, 0], [0, 1]], [[1, 0], [0, 3]]], name="diag")


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out)


class TestLoader:
    def test_complex_parts_and_digest(self, tmp_path):
        path = write_set(tmp_path / "c.json", [[[1, 0], [0, 1]]],
                         im=[[[0, 2], [0, 0]]])
        M, digest = load_matrix_set(path)
        assert M.gens[0, 0, 1] == 2j
        assert len(digest) == 64

    def test_imaginary_part_optional(self, tmp_path):
        path = write_set(tmp_path / "r.json", [[[1, 0], [0, 1]]])
        M, _ = load_matrix_set(path)
        assert np.array_equal(M.gens[0], np.eye(2))


class TestReports:
    def test_refine_json_report(self, capsys, golden_file):
        code, rep = run_json(capsys, ["refine", golden_file, "--width", "0.02",
                                      "--budget", "1000000", "--format", "json"])
        assert code == 0
        assert rep["tool"] == "jsrkit" and rep["command"] == "refine"
        assert rep["name"] == "golden" and rep["dim"] == 2 and rep["generators"] == 2
        assert rep["input_digest"].startswith("sha256:")
        assert rep["exit_status"] == 0
        r = rep["result"]
        assert r["converged"] is True
        assert r["lower"] == pytest.approx(1.6180339887482762, abs=1e-13)
        assert r["lower_witness"] == [0, 1]

    def test_refine_reports_its_blocks(self, capsys, golden_file, hand_file):
        # blocks comes last; the hand pair is triangular: two 1 x 1 blocks,
        # the one holding 3 first
        for path, want in ((golden_file, [2]), (hand_file, [1, 1])):
            _, rep = run_json(capsys, ["refine", path, "--width", "0.01", "--format", "json"])
            assert list(rep["result"])[-1] == "blocks"
            assert rep["result"]["blocks"] == want
        main(["refine", hand_file, "--width", "0.01"])
        out = capsys.readouterr().out
        assert "result.blocks[0] = 1\nresult.blocks[1] = 1\n" in out

    def test_text_format_flattens_keys(self, capsys, golden_file):
        code = main(["refine", golden_file, "--width", "0.02"])
        out = capsys.readouterr().out
        assert code == 0
        assert "result.lower = " in out
        assert "result.converged = True" in out
        assert "exit_status = 0" in out

    def test_text_and_json_agree(self, capsys, diag_file):
        main(["bounds", diag_file, "--depth", "3"])
        text = capsys.readouterr().out
        code, rep = run_json(capsys, ["bounds", diag_file, "--depth", "3",
                                      "--format", "json"])
        assert code == 0
        line = next(l for l in text.splitlines() if l.startswith("result.upper = "))
        assert float(line.split(" = ")[1]) == rep["result"]["upper"]

    def test_bounds_orders_endpoints(self, capsys, golden_file):
        code, rep = run_json(capsys, ["bounds", golden_file, "--depth", "6",
                                      "--format", "json"])
        assert code == 0
        assert rep["params"]["depth"] == 6
        assert rep["result"]["lower"] <= rep["result"]["upper"] * (1 + 1e-9)

    def test_verify_bw_pass_and_fail_codes(self, capsys, golden_file, tmp_path):
        code, rep = run_json(capsys, ["verify-bw", golden_file, "--tol", "1e-9",
                                      "--format", "json"])
        assert code == 0 and rep["result"]["pass"] is True
        shear = write_set(tmp_path / "shear.json", [[[1, 1], [0, 1]]])
        code, rep = run_json(capsys, ["verify-bw", shear, "--tol", "1e-6",
                                      "--budget", "50", "--format", "json"])
        assert code == 2 and rep["result"]["pass"] is False
        assert rep["exit_status"] == 2

    def test_lift_check(self, capsys, diag_file):
        code, rep = run_json(capsys, ["lift-check", diag_file, "--depth", "3",
                                      "--format", "json"])
        assert code == 0
        assert rep["result"]["pass"] is True and rep["result"]["w_pass"] is True

    def test_radical(self, capsys, hand_file):
        code, rep = run_json(capsys, ["radical", hand_file, "--format", "json"])
        assert code == 0
        r = rep["result"]
        assert r["algebra_dim"] == 3 and r["radical_dim"] == 1
        assert r["quotient_rep_dim"] == 2 and r["unital"] is True

    def test_inessential(self, capsys, hand_file):
        code, rep = run_json(capsys, ["inessential", hand_file, "--format", "json"])
        assert code == 0 and rep["result"]["pass"] is True

    def test_chain(self, capsys, hand_file):
        code, rep = run_json(capsys, ["chain", hand_file, "--format", "json"])
        assert code == 0
        assert rep["result"]["rows"]
        assert rep["result"]["final_direct"]["upper"] == \
            rep["result"]["rows"][-1]["upper"]

    def test_continuity(self, capsys, diag_file):
        code, rep = run_json(capsys, ["continuity", diag_file, "--eps", "0.1,0.01",
                                      "--trials", "3", "--seed", "1",
                                      "--format", "json"])
        assert code == 0
        rows = rep["result"]["rows"]
        assert [r["eps"] for r in rows] == [0.1, 0.01]
        assert rows[0]["max_dev"] >= rows[1]["max_dev"]
        assert all(r["complete"] for r in rows)

    def test_frobenius_norm_option(self, capsys, golden_file):
        code, spec = run_json(capsys, ["bounds", golden_file, "--depth", "4",
                                       "--format", "json"])
        code2, fro = run_json(capsys, ["bounds", golden_file, "--depth", "4",
                                       "--norm", "frobenius", "--format", "json"])
        assert code == 0 and code2 == 0
        assert fro["norm"] == "frobenius"
        assert fro["result"]["upper"] >= spec["result"]["upper"] - 1e-12

    @pytest.mark.parametrize("norm", ["spectral", "frobenius"])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--depth", "4"],
        ["refine", "--width", "0.05"],
        ["verify-bw", "--tol", "0.05"],
        ["lift-check", "--depth", "2"],
        ["inessential"],
        ["chain"],
        ["continuity", "--eps", "0.1", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_norm_reaches_every_norm_evaluation(self, capsys, monkeypatch, hand_file,
                                                argv, norm):
        # every sweep and branch-and-bound expansion measures its products
        # through _kernels.norms, so --norm must arrive at each call
        seen = []
        norms = _kernels.norms

        def spy(stack, fro):
            seen.append(fro)
            return norms(stack, fro)

        monkeypatch.setattr(_kernels, "norms", spy)
        code = main([argv[0], hand_file, "--norm", norm, *argv[1:]])
        capsys.readouterr()
        assert code in (0, 2)
        assert seen and set(seen) == {norm == "frobenius"}


class TestErrors:
    def err(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.err

    @pytest.mark.parametrize("flag,value", [("--eps", "0.01,0.1"), ("--eps", ","),
                                            ("--eps", "nan"), ("--seed", "-1")])
    def test_continuity_rejects_bad_values_at_parse_time(self, capsys, diag_file,
                                                          flag, value):
        with pytest.raises(SystemExit) as info:
            main(["continuity", diag_file, flag, value])
        assert info.value.code == 64
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["no-such-command"], ["--no-such-flag"],
                                      ["refine", "set.json", "--width", "0"]])
    def test_usage_errors_exit_ex_usage(self, capsys, argv):
        # 64 keeps a mistyped command apart from a check that did not pass (2)
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 64
        assert "usage:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, err = self.err(capsys, ["refine", "/nonexistent/set.json"])
        assert code == 1 and err.startswith("error:")

    def test_truncated_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"dim": 2,\n')
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and "line" in err

    def test_wrong_row_count(self, capsys, tmp_path):
        p = tmp_path / "rows.json"
        p.write_text(json.dumps({"dim": 2, "matrices": [{"re": [[1, 0]]}]}))
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and "matrix 0" in err

    def test_non_numeric_entry(self, capsys, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(
            {"dim": 1, "matrices": [{"re": [["x"]]}]}))
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and "not a number" in err

    @pytest.mark.parametrize("text,fragment", [
        ('{"dim": 1, "matrices": [{"re": [[' + "9" * 400 + ']]}]}', "not finite"),
        ('{"dim": 1, "matrices": [{"re": [[' + "9" * 5000 + ']]}]}', "limits"),
        ("[" * 100_000, "limits"),
    ], ids=["400-digit-integer", "5000-digit-integer", "deep-nesting"])
    def test_hostile_numbers_and_nesting(self, capsys, tmp_path, text, fragment):
        p = tmp_path / "hostile.json"
        p.write_text(text)
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and err.startswith("error:") and fragment in err

    def test_boolean_entry_rejected(self, capsys, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text(json.dumps({"dim": 1, "matrices": [{"re": [[True]]}]}))
        code, _ = self.err(capsys, ["refine", str(p)])
        assert code == 1

    def test_bad_name_type(self, capsys, tmp_path):
        p = tmp_path / "name.json"
        p.write_text(json.dumps(
            {"name": 7, "dim": 1, "matrices": [{"re": [[1]]}]}))
        code, _ = self.err(capsys, ["refine", str(p)])
        assert code == 1

    def test_missing_dim(self, capsys, tmp_path):
        p = tmp_path / "dim.json"
        p.write_text(json.dumps({"matrices": [{"re": [[1]]}]}))
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and "dim" in err


class TestCaps:
    def test_dim_cap_applies(self, capsys, tmp_path):
        path = write_set(tmp_path / "big.json", [np.eye(6).tolist()])
        code = main(["refine", path, "--max-dim", "5"])
        assert code == 1
        assert "exceeds cap" in capsys.readouterr().err

    def test_caps_only_lower(self, capsys, golden_file):
        assert main(["refine", golden_file, "--max-dim", "128"]) == 1
        capsys.readouterr()
        assert main(["refine", golden_file, "--budget", "20000001"]) == 1
        capsys.readouterr()

    def test_generator_cap(self, capsys, tmp_path):
        path = write_set(tmp_path / "many.json", [[[1.0]] for _ in range(9)])
        assert main(["refine", path]) == 1
        capsys.readouterr()


class TestDeterminism:
    def run_proc(self, argv):
        cmd = [sys.executable, "-m", "jsrkit.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True)
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_stdout_bytes_stable(self, golden_file):
        argv = ["refine", golden_file, "--width", "0.02",
                "--budget", "1000000", "--format", "json"]
        runs = [self.run_proc(argv) for _ in range(2)]
        assert all(r == runs[0] for r in runs)
        assert b"wall_time" not in runs[0]  # timing stays on stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "jsrkit" in capsys.readouterr().out
