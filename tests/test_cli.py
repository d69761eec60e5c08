import json

import numpy as np
import pytest

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

    def test_complex_parameters(self, capsys):
        code, out, _ = run(
            capsys, "kernel", "--z", "0.5+1.5i", "--zp", "0.5-1.5i", "--trunc", "3"
        )
        assert code == 0


class TestVerifyCommand:
    def test_fredholm_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _out, err = run(
            capsys, "verify", "--suite", "fredholm", "--default-params", "--out", str(out_file)
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

    def test_usage_error_exit_code(self, capsys):
        code, _out, _err = run(capsys, "verify", "--suite", "nonsense")
        assert code == 2


class TestSampleCommand:
    def test_deterministic_output(self, capsys):
        args = ("sample", "--seed", "3", "--count", "25", "--xi", "0.5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        meta = json.loads(lines[0])
        assert meta["schema"] == "zmeasure.sample/1" and meta["count"] == 25
        draws = [json.loads(line) for line in lines[1:]]
        assert len(draws) == 25
        assert all(d["n"] == sum(d["parts"]) for d in draws)

    def test_workers_flag_refused(self, capsys):
        code, _out, _err = run(capsys, "sample", "--seed", "1", "--count", "3", "--workers", "2")
        assert code == 2

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

    def test_scaling_quick(self, capsys):
        code, out, err = run(capsys, "scaling", "--xi-list", "0.9,0.99")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "scaling" and payload[0]["passed"]
        assert "PASS" in err
