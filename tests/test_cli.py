import json
import subprocess
import sys
import warnings

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


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def run_json(capsys, argv):
    """Exit code and report of a run, parsed as strict JSON (no Infinity or NaN)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out, parse_constant=_not_json)


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
        # blocks then stop_reason close the result; the hand pair is
        # triangular: two 1 x 1 blocks, the one holding 3 first
        for path, want in ((golden_file, [2]), (hand_file, [1, 1])):
            _, rep = run_json(capsys, ["refine", path, "--width", "0.01", "--format", "json"])
            assert list(rep["result"])[-2:] == ["blocks", "stop_reason"]
            assert rep["result"]["blocks"] == want
            assert rep["result"]["stop_reason"] == "converged"
        main(["refine", hand_file, "--width", "0.01"])
        out = capsys.readouterr().out
        assert "result.blocks[0] = 1\nresult.blocks[1] = 1\nresult.stop_reason = converged\n" in out

    def test_refine_prints_why_it_stopped(self, capsys, golden_file):
        # a budget of 3 products measures golden's two depth-1 words, and
        # expanding one of them would take 2 more
        code, rep = run_json(capsys, ["refine", golden_file, "--width", "0.01", "--budget", "3",
                                      "--format", "json"])
        assert code == 2 and rep["result"]["stop_reason"] == "budget"
        assert rep["result"]["nodes_explored"] == 2

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

    def test_reports_are_finite_at_any_budget_and_scale(self, capsys, golden_file, tmp_path):
        # a budget under the generator count still runs the depth-1 sweep
        code, rep = run_json(capsys, ["verify-bw", golden_file, "--budget", "1",
                                      "--format", "json"])
        assert code == 2 and rep["result"]["words_evaluated"] == 2
        assert rep["result"]["r_lower"] <= rep["result"]["rho_upper"]
        big = write_set(tmp_path / "big.json", [[[1e200, 1e200], [0, 1e200]],
                                                [[1e200, 0], [1e200, 1e200]]])
        for argv in (["bounds"], ["refine", "--width", "1e197"]):
            code, rep = run_json(capsys, [argv[0], big, *argv[1:], "--format", "json"])
            assert code == 0
            # the upper end may be the rounded generator norm, an ulp under phi
            lo, up = rep["result"]["lower"], rep["result"]["upper"]
            assert lo <= oracles.PHI * 1e200 <= up * (1 + 2**-52)
        assert rep["result"]["converged"] is True

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

    @pytest.mark.parametrize("cmd,params", [
        ("bounds", [("depth", 6), ("budget", 10**6)]),
        ("refine", [("width", 0.01), ("budget", 10**6)]),
        ("verify-bw", [("tol", 1e-6), ("budget", 10**6)]),
        ("lift-check", [("depth", 4), ("tol", 1e-7), ("width", 0.05), ("budget", 200_000)]),
        ("radical", [("max_algebra_dim", 64)]),
        ("inessential", [("width", 0.05), ("budget", 200_000), ("max_algebra_dim", 64)]),
        ("chain", [("width", 0.02), ("budget", 10**5), ("max_algebra_dim", 64)]),
        ("continuity", [("eps", [0.1, 0.03, 0.01]), ("trials", 20), ("seed", 0),
                        ("budget", 50_000)]),
    ])
    def test_params_echo_the_subcommand_flags_in_order(self, capsys, tmp_path, cmd, params):
        # no flag given: each value is its flag's default; the caps, the
        # format and the norm are flags too, but never params
        path = write_set(tmp_path / "scalars.json", [[[0.5]], [[0.25]]])
        _, rep = run_json(capsys, [cmd, path, "--format", "json"])
        assert list(rep["params"].items()) == params
        assert not {"format", "max_dim", "max_generators", "norm"} & set(rep["params"])


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
                                      ["refine", "set.json", "--width", "0"],
                                      ["refine", "set.json", "--width", "inf"],
                                      ["refine", "set.json", "--budget", "0"]])
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

    @pytest.mark.parametrize("raw,fragment", [
        (b'{"dim": 1, "matrices": [{"re": [[1]]}], "name": "\xff"}', "not UTF-8"),
        (b'[1, 2]', "top level"),
        (b'{"dim": 1, "matrices": []}', "nonempty array"),
        (b'{"dim": 1, "matrices": [[[1]]]}', "must be an object"),
        (b'{"dim": 1, "matrices": [{"im": [[1]]}]}', 'missing "re"'),
        (b'{"dim": 2, "matrices": [{"re": [[1, 0], [1]]}]}', "row 1 must have 2 entries"),
    ], ids=["non-utf8", "top-level-array", "no-matrices", "entry-not-object",
            "missing-re", "short-row"])
    def test_malformed_set_files(self, capsys, tmp_path, raw, fragment):
        p = tmp_path / "bad.json"
        p.write_bytes(raw)
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and err.startswith("error:") and fragment in err

    def test_missing_dim(self, capsys, tmp_path):
        p = tmp_path / "dim.json"
        p.write_text(json.dumps({"matrices": [{"re": [[1]]}]}))
        code, err = self.err(capsys, ["refine", str(p)])
        assert code == 1 and "dim" in err

    def scaled_golden_refused(self, capsys, tmp_path, s):
        path = write_set(tmp_path / "big.json", [[[s, s], [0, s]], [[s, 0], [s, s]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.err(capsys, ["lift-check", path, "--depth", "2"])
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        return err

    def test_lift_check_past_the_double_range_is_a_typed_error(self, capsys, tmp_path):
        # at 2**512 the lifts' entries pass 2**1024
        err = self.scaled_golden_refused(capsys, tmp_path, 2.0**512)
        assert "lift action residual is not finite" in err

    def test_lift_check_with_rho_squared_past_the_double_range_is_a_typed_error(
            self, capsys, tmp_path):
        # at 1.9 * 2**511 the lifts are finite, but rho(M)^2 is not; the
        # w residual, rounding-level times 2**2048, is refused first
        err = self.scaled_golden_refused(capsys, tmp_path, 1.9 * 2.0**511)
        assert "is not finite" in err

    @pytest.mark.parametrize("cmd", ["refine", "bounds", "verify-bw", "lift-check",
                                     "inessential"])
    def test_eigensolver_failure_is_a_typed_error(self, capsys, monkeypatch, hand_file, cmd):
        # a LinAlgError from LAPACK once ended these runs in a traceback; the
        # failure reaches the engine as the invalid flag of numpy's gufunc
        monkeypatch.setattr(_kernels, "_umath_linalg", oracles.FailingLapack())
        code, err = self.err(capsys, [cmd, hand_file])
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("cmd", ["bounds", "lift-check"])
    def test_sweep_past_printable_count_is_a_typed_error(self, capsys, hand_file, cmd):
        # the word count of depth 20000, 2**20001 - 2, has more digits than
        # str() prints, and once ended these runs in a ValueError traceback
        code, err = self.err(capsys, [cmd, hand_file, "--depth", "20000"])
        assert code == 1 and err.startswith("error:") and len(err.splitlines()) == 1
        assert "needs more than 2**20000 words" in err

    def test_sweep_over_budget_names_its_count(self, capsys, hand_file):
        code, err = self.err(capsys, ["bounds", hand_file, "--depth", "40"])
        assert code == 1
        assert err == "error: sweep to depth 40 needs 2199023255550 words, budget is 1000000\n"

    @pytest.mark.parametrize("s", [1e300, 1e-300])
    @pytest.mark.parametrize("cmd", ["radical", "inessential", "chain"])
    def test_algebra_commands_at_extreme_scale(self, capsys, tmp_path, cmd, s):
        # every generator's norm overflowed or underflowed, so each was
        # taken for zero: "all generators are zero", exit 1
        path = write_set(tmp_path / "golden.json", [[[s, s], [0, s]], [[s, 0], [s, s]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, [cmd, path, "--format", "json"])
        res = rep["result"]
        assert code == 0
        if cmd == "chain":
            assert [r["ideal_dim"] for r in res["rows"]] == [0]
        else:
            assert (res["algebra_dim"], res["radical_dim"]) == (4, 0)

    def test_lift_check_passes_at_large_finite_scale(self, capsys, tmp_path):
        # (|a| |b|)^2 is about 1e145 here; the slack is compared at its square root
        s = 1e36
        path = write_set(tmp_path / "golden.json", [[[s, s], [0, s]], [[s, 0], [s, s]]])
        code, rep = run_json(capsys, ["lift-check", path, "--depth", "2", "--format", "json"])
        assert code == 0 and rep["result"]["w_pass"] is True


    def test_lift_check_passes_past_the_old_lift_range(self, capsys, tmp_path):
        # the lifts' self-check norms overflowed from about 2**140 on
        s = 2.0**300
        path = write_set(tmp_path / "golden.json", [[[s, s], [0, s]], [[s, 0], [s, s]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, ["lift-check", path, "--depth", "2", "--budget", "20000",
                                          "--format", "json"])
        res = rep["result"]
        assert code == 0 and res["pass"] is True and res["w_pass"] is True
        assert res["w_residual_max"] == 0.0

    @pytest.mark.parametrize("flag,value", [("--budget", "5"), ("--budget", "99999999"),
                                            ("--norm", "frobenius")])
    def test_radical_takes_no_norm_and_no_budget(self, capsys, hand_file, flag, value):
        # radical bounds nothing: both flags were validated and then ignored
        with pytest.raises(SystemExit) as info:
            main(["radical", hand_file, flag, value])
        assert info.value.code == 64
        assert "unrecognized arguments" in capsys.readouterr().err
        code, rep = run_json(capsys, ["radical", hand_file, "--format", "json"])
        assert code == 0 and rep["norm"] is None and "budget" not in rep["params"]

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
        assert main(["refine", golden_file, "--max-generators", "9"]) == 1
        assert "may only lower" in capsys.readouterr().err

    def test_dim_is_capped_before_the_grid_is_allocated(self, capsys, tmp_path):
        # 200,000 empty rows: a dim x dim grid would need 298 GiB
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 200_000, "matrices": [{"re": [[]] * 200_000}]}))
        assert main(["refine", str(path)]) == 1
        assert "exceeds cap 64" in capsys.readouterr().err

    def test_generator_cap(self, capsys, tmp_path):
        path = write_set(tmp_path / "many.json", [[[1.0]] for _ in range(9)])
        assert main(["refine", path]) == 1
        capsys.readouterr()


class TestDeterminism:
    def run_proc(self, argv):
        cmd = [sys.executable, "-m", "jsrkit.cli"] + argv
        proc = subprocess.run(cmd, capture_output=True, env=oracles.cli_env())
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


# Run the CLI in a fresh interpreter the way `python -m jsrkit.cli` does, with
# numpy imported first, and print (exit code, jsrkit modules loaded, whether
# numpy.random was loaded by numpy itself, whether it is loaded at the end)
# as the last stdout line.
COLD_RUN = """
import json, runpy, sys
import numpy
by_numpy = "numpy.random" in sys.modules
sys.argv = ["jsr", *sys.argv[1:]]
try:
    runpy.run_module("jsrkit.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "jsrkit"),
                  by_numpy, "numpy.random" in sys.modules]))
"""

# what every subcommand loads: the cli itself runs as __main__
CORE = ["jsrkit", "jsrkit._kernels", "jsrkit.bounds", "jsrkit.config", "jsrkit.errors",
        "jsrkit.matrices", "jsrkit.sets"]


# (argv, modules beyond CORE)
COLD_CASES = [
    (["refine", "--width", "0.05"], []),
    (["bounds", "--depth", "3"], []),
    (["verify-bw", "--tol", "0.05", "--budget", "2000"], []),
    (["lift-check", "--depth", "2"], ["jsrkit.lift"]),
    (["radical"], ["jsrkit.algebra"]),
    (["inessential"], ["jsrkit.algebra"]),
    (["chain"], ["jsrkit.algebra"]),
    (["continuity", "--eps", "0.1", "--trials", "1"], []),
]


class TestColdLoad:
    @pytest.mark.parametrize("argv,extra", COLD_CASES, ids=[c[0][0] for c in COLD_CASES])
    def test_subcommand_loads_only_what_it_runs(self, hand_file, argv, extra):
        proc = subprocess.run([sys.executable, "-c", COLD_RUN, argv[0], hand_file, *argv[1:]],
                              capture_output=True, text=True, env=oracles.cli_env())
        assert proc.returncode == 0, proc.stderr
        code, modules, by_numpy, random_loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code in (0, 2)
        assert modules == sorted(CORE + extra)
        # continuity draws its perturbations from numpy.random; no other
        # subcommand loads it where numpy itself does not (numpy 1.x does)
        assert random_loaded is (argv[0] == "continuity" or by_numpy)

    def test_package_import_loads_no_submodule(self):
        snippet = ("import sys, jsrkit; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsrkit', 'numpy')))")
        proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True,
                              env=oracles.cli_env(), check=True)
        assert proc.stdout.strip() == "['jsrkit']"
