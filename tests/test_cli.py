"""CLI surface: exit codes, report formats, config handling, determinism."""

import hashlib
import json
import re

import pytest

from ewverify.cli import ConfigError, load_config, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_masses_json(capsys):
    code, out, _ = run_cli(capsys, "masses", "--g", "3", "--gp", "4", "--R", "2")
    assert code == 0
    data = json.loads(out)
    assert data["m_W"] == 3.0
    assert data["m_Z"] == 5.0
    assert data["m_A"] == 0.0
    assert data["exact"]["e_charge"] == "12/5"


def test_verify_group_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "group", "--j", "iota", "--samples", "25"
    )
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["failed"] == 0
    assert data["reports"][0]["check_name"] == "group-axioms"
    assert data["reports"][0]["status"] == "pass"


def test_verify_gauge_and_lagrangian(capsys):
    code, out, _ = run_cli(capsys, "verify", "gauge", "--samples", "10")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "lagrangian", "--samples", "10")
    assert code == 0


def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--samples", "20", "--format", "csv", "--seed", "9"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "j,ratio_f,ratio_h"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)


def test_eom_text(capsys):
    code, out, _ = run_cli(capsys, "eom", "--format", "text")
    assert code == 0
    assert "base-fiber-decoupling" in out


def test_verify_all_with_config(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"samples": 25, "seed": 3}))
    code, out, _ = run_cli(capsys, "verify", "all", "--config", str(path))
    assert code == 0
    data = json.loads(out)
    names = [r["check_name"] for r in data["reports"]]
    assert "group-axioms" in names
    assert "grading-identity" in names
    assert "u1-invariance" in names
    assert "trace-identity" in names
    assert "base-fiber-decoupling" in names
    assert "mass-invariance" in names
    assert data["summary"]["failed"] == 0


def test_json_reports_are_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = run(
            ["verify", "group", "--j", "1", "--samples", "30", "--seed", "5",
             "--out", str(out)]
        )
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_all_is_deterministic(tmp_path, capsys):
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        code = run(["verify", "all", "--samples", "20", "--seed", "11",
                    "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


# SHA-256 of the JSON these commands printed before the exact-arithmetic
# core was rewritten; a faster core must reproduce it byte for byte.
PINNED_JSON = [
    (("verify", "all", "--samples", "20", "--seed", "42"),
     "fabaf8f5715a0ee449a5ad4a96ba263c9cf65f04199c18a3c1bc6b7e12ce0fce"),
    (("verify", "group", "--j", "iota", "--samples", "25", "--seed", "7"),
     "478b56e66e8a619b22dc3820474fa2fda26019fb95a3e8fafd7a34062f6e57d5"),
    (("verify", "lagrangian", "--no-exact", "--g", "1.3", "--gp", "0.7"),
     "7f0fce0134491b2e6f781ef23f669279afd79f074ddcc275d7eef97cb6090d9b"),
]


@pytest.mark.parametrize("argv, digest", PINNED_JSON)
def test_json_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gauge_suite_numeric_mode(capsys):
    code, out, _ = run_cli(capsys, "verify", "gauge", "--j", "0.25")
    assert code == 0
    data = json.loads(out)
    assert any(r["mode"] == "j=0.25" for r in data["reports"])


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "bogus-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "masses", "--g", "-1")
    assert code == 2
    assert "positive" in err


def test_csv_rejected_outside_sweep(capsys):
    code, _, err = run_cli(capsys, "verify", "group", "--format", "csv")
    assert code == 2
    assert "csv" in err


def test_missing_config_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "masses", "--config", "/nonexistent/f.json")
    assert code == 2
    assert "nonexistent" in err


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "masses", "--config", str(bad))
    assert code == 2


def test_load_config_defaults_and_overrides(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    cfg = load_config(empty)
    assert (cfg.g, cfg.gp, cfg.R) == (3, 4, 2)
    assert cfg.jmode.is_nilpotent
    assert (cfg.seed, cfg.samples, cfg.exact) == (42, 1000, True)

    full = tmp_path / "full.json"
    full.write_text(
        json.dumps(
            {"g": "5", "gp": 12, "R": "1/2", "jmode": "0.01", "seed": 7,
             "samples": 50, "exact": True}
        )
    )
    cfg = load_config(full)
    assert cfg.g == 5 and cfg.gp == 12
    assert cfg.jmode.is_numeric and float(cfg.jmode.value) == 0.01


@pytest.mark.parametrize(
    "payload,needle",
    [
        ({"g": -1}, "positive"),
        ({"nosuch": 1}, "nosuch"),
        ({"jmode": "xyz"}, "jmode"),
        ({"seed": "abc"}, "seed"),
        ({"exact": "yes"}, "exact"),
        ({"g": 1, "gp": 1}, "rational"),
    ],
)
def test_load_config_rejects_bad_values(tmp_path, payload, needle):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert needle in str(err.value)


def test_config_file_plus_flag_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"g": 5, "gp": 12, "R": 2}))
    code, out, _ = run_cli(capsys, "masses", "--config", str(path))
    assert json.loads(out)["m_Z"] == 13.0
    code, out, _ = run_cli(
        capsys, "masses", "--config", str(path), "--g", "3", "--gp", "4"
    )
    assert json.loads(out)["m_Z"] == 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "group", "--samples", "0"),
        ("masses", "--samples", "-3"),
        ("sweep", "--samples", "5"),
    ],
)
def test_too_few_samples_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "samples" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lagrangian"),
        ("verify", "trace"),
        ("eom",),
        ("sweep",),
    ],
)
def test_unused_j_flag_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--j", "iota")
    assert code == 2
    assert out == ""
    assert "--j" in err


def test_engine_fault_exits_1(monkeypatch, capsys):
    from ewverify import model

    def faulty(*args):
        raise ValueError("complex mass coefficient for ZZ: 1+i")

    monkeypatch.setattr(model, "_pair_coefficient", faulty)
    code, out, err = run_cli(capsys, "masses")
    assert code == 1
    assert out == ""
    assert "ewverify: internal error: complex mass coefficient" in err


def test_text_output_shows_each_check_duration(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "group", "--samples", "2", "--format", "text"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines[:3]:
        assert line.startswith("[PASS] group-axioms")
        assert re.search(r" \d+ ms", line)
