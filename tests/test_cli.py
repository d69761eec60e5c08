import json
import os
import subprocess
import sys

import numpy as np
import pytest

import zmeasure
from zmeasure.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasureCommand:
    def test_rows_sum_to_one(self, capsys):
        code, out, _ = run(capsys, "measure", "--n", "2", "--z", "0.5", "--zp", "0.3333333333")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert {tuple(r["parts"]) for r in rows} == {(2,), (1, 1)}
        assert sum(r["value"] for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert rows[0]["frobenius"] == [[1], [0]]

    def test_values_round_trip(self, capsys):
        code, out, _ = run(capsys, "measure", "--n", "3")
        values = [json.loads(line)["value"] for line in out.strip().splitlines()]
        assert all(isinstance(v, float) for v in values)
        assert json.loads(json.dumps(values)) == values


class TestKernelCommand:
    def test_csv_shape_and_symmetry(self, capsys):
        code, out, _ = run(capsys, "kernel", "--block=++", "--trunc", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k\\l,0,1,2,3,4"
        assert len(lines) == 6
        mat = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert mat.shape == (5, 5)
        assert np.array_equal(mat, mat.T)

    def test_block_aliases(self, capsys):
        code1, out1, _ = run(capsys, "kernel", "--block", "pm", "--trunc", "3", "--format", "json")
        code2, out2, _ = run(capsys, "kernel", "--block=+-", "--trunc", "3", "--format", "json")
        assert code1 == code2 == 0
        assert json.loads(out1) == json.loads(out2)

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "kernel", "--block=--", "--trunc", "2", "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"schema", "block", "trunc", "z", "z_prime", "xi", "entries"}
        assert payload["schema"] == "zmeasure.kernel/1"
        assert payload["block"] == "--"

    @pytest.mark.parametrize("block", ["++", "+-"])
    def test_empty_truncation_refused(self, capsys, block):
        code, out, err = run(capsys, "kernel", "--block", block, "--trunc", "0")
        assert code == 2 and out == ""
        assert err == "error: trunc must be at least 1, got 0\n"

    def test_complex_parameters(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--z", "0.5+1.5i", "--zp", "0.5-1.5i", "--trunc", "3"
        )
        assert code == 0


class TestVerifyCommand:
    def test_fredholm_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _out, err = run(
            capsys, "verify", "--suite", "fredholm", "--out", str(out_file)
        )
        assert code == 0
        assert "suite fredholm: PASS" in err
        payload = json.loads(out_file.read_text())
        assert isinstance(payload, list) and payload[0]["schema"] == "zmeasure.report/1"
        assert set(payload[0]) == {
            "schema",
            "suite",
            "tolerance",
            "passed",
            "runtime_seconds",
            "cases",
        }

    def test_parameter_error_exit_code(self, capsys):
        code, _out, err = run(capsys, "verify", "--suite", "fredholm", "--z", "2.0", "--zp", "2.5")
        assert code == 2
        assert "admissible" in err

    def test_meixner_suite_uses_given_xi(self, capsys):
        code_given, out_given, _ = run(capsys, "verify", "--suite", "meixner", "--xi", "0.7")
        code_default, out_default, _ = run(capsys, "verify", "--suite", "meixner")
        assert code_given == code_default == 0
        given, default = json.loads(out_given)[0]["cases"], json.loads(out_default)[0]["cases"]
        assert all("xi=0.7" in c["label"] for c in given)
        assert all("xi=0.4" in c["label"] for c in default)
        assert [c["lhs"] for c in given] != [c["lhs"] for c in default]

    def test_normalization_suite_names_given_pair(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "normalization", "--z", "0.5+1.5i", "--zp", "0.5-1.5i", "--xi", "0.3"
        )
        assert code == 0
        labels = [c["label"] for c in json.loads(out)[0]["cases"]]
        sums = [label for label in labels if label.startswith("sum over")]
        weights = [label for label in labels if label.startswith("factored vs direct")]
        assert len(sums) == 18 and all(label.endswith("pair (0.5+1.5i, 0.5-1.5i)") for label in sums)
        assert weights == ["factored vs direct grand-ensemble weight, pair (0.5+1.5i, 0.5-1.5i), xi=0.3, n <= 18"]

    def test_identities_suite_for_negative_pair(self, capsys):
        code, _out, err = run(capsys, "verify", "--suite", "identities", "--z", "-0.4", "--zp", "-0.7")
        assert code == 0, err

    def test_usage_error_exit_code(self, capsys):
        code, _out, _err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (("--suite", "scaling", "--xi", "0.7"), "xi"),
            (("--suite", "meixner", "--z", "0.9", "--zp", "0.2"), "pair"),
            (("--suite", "all", "--xi", "0.3"), "xi"),
            (("--suite", "all", "--z", "0.5", "--zp", "0.25"), "pair"),
        ],
    )
    def test_unusable_value_refused(self, capsys, argv, refused):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: suite {argv[1]!r} cannot use a given {refused}\n"

    @pytest.mark.parametrize("suite", ["normalization", "oracle", "fredholm", "identities"])
    def test_zero_xi_refused(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--z", "0.5", "--zp", "0.3333333", "--xi", "0")
        assert code == 2 and out == ""
        assert "xi must lie in (0, 1), got 0.0" in err

    def test_half_pair_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "oracle", "--z", "0.5")
        assert code == 2 and out == ""
        assert err == "error: --z and --zp must be given together\n"


class TestSampleCommand:
    def test_deterministic_output(self, capsys):
        args = ("sample", "--seed", "3", "--count", "25", "--xi", "0.5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        meta = json.loads(lines[0])
        assert meta["schema"] == "zmeasure.sample/3" and meta["count"] == 25
        draws = [json.loads(line) for line in lines[1:]]
        assert len(draws) == 25
        assert all(d["n"] == sum(d["parts"]) for d in draws)

    def test_workers_flag_refused(self, capsys):
        code, _out, _err = run(capsys, "sample", "--seed", "1", "--count", "3", "--workers", "2")
        assert code == 2

    def test_size_cap_flag_refused(self, capsys):
        code, _out, _err = run(capsys, "sample", "--seed", "1", "--count", "3", "--n-cap", "40")
        assert code == 2

    def test_underflowing_size_weight_accepted(self, capsys):
        # (1-xi)^t is 0.0 here, and the pair is admissible, so it is used: --count 0
        # prints the metadata line alone.
        code, out, _err = run(
            capsys, "sample", "--z", "0.3+30i", "--zp", "0.3-30i", "--xi", "0.9999", "--seed", "1",
            "--count", "0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        meta = json.loads(lines[0])
        assert meta["count"] == 0 and meta["z"] == [0.3, 30.0] and meta["xi"] == 0.9999

    def test_sizes_above_thirty_boxes(self, capsys):
        code, out, _err = run(capsys, "sample", "--xi", "0.9", "--count", "2000", "--seed", "1")
        assert code == 0
        draws = [json.loads(line) for line in out.strip().splitlines()[1:]]
        assert len(draws) == 2000 and max(d["n"] for d in draws) > 30

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("ZMEASURE_OUT_DIR", str(tmp_path / "outputs"))
        code, _out, _err = run(
            capsys, "sample", "--seed", "1", "--count", "3", "--xi", "0.3", "--out", "draws.jsonl"
        )
        assert code == 0
        assert (tmp_path / "outputs" / "draws.jsonl").exists()


class TestShortcutCommands:
    def test_meixner_matrix(self, capsys):
        code, out, _ = run(
            capsys, "meixner", "--rank", "3", "--alpha", "0.5", "--xi", "0.4", "--trunc", "4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        mat = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.allclose(mat, mat.T)

    def test_meixner_bad_alpha(self, capsys):
        code, _out, err = run(capsys, "meixner", "--alpha", "-2.0")
        assert code == 2

    @pytest.mark.parametrize("pair", [(), ("--z", "0.5+1.5i", "--zp", "0.5-1.5i")])
    def test_scaling_to_xi_0_99999(self, capsys, pair):
        code, out, err = run(capsys, "scaling", *pair, "--xi-list", "0.9,0.99,0.999,0.9999,0.99999")
        assert code == 0, err
        # 25 limit cases, and the float Whittaker W against mpmath at three x for each
        # distinct kappa: six for the real pair, four for the conjugate pair (z + z' = 1)
        assert len(json.loads(out)[0]["cases"]) == 25 + 3 * (4 if pair else 6)

    def test_scaling_quick(self, capsys):
        code, out, err = run(capsys, "scaling", "--xi-list", "0.9,0.99")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "scaling" and payload[0]["passed"]
        assert "PASS" in err


def test_cold_start_imports_no_scipy():
    # a fresh interpreter, as a CLI call starts: scipy would add about 0.3 s to it
    code = (
        "import sys, zmeasure, zmeasure.cli; zmeasure.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = os.path.dirname(os.path.dirname(zmeasure.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
