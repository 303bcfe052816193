"""Configuration, persistence, and command-line surface tests."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from driftflow.cli import build_parser, main
from driftflow.config import ResultRecord, RunConfig, read_csv, write_csv
from driftflow.errors import ConfigError, FormatVersionMismatch
from driftflow.spectral import Grid, SpectralField, save_field

from conftest import small_field


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"system": "df", "coffee": True})
        with pytest.raises(ConfigError):  # exp_rk2 is the only scheme, not a key
            RunConfig.from_dict({"scheme": "exp_rk2"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"npts": 31})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"system": "navier"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"mu": -1.0})

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"system": "df", "npts": 32, "tau": 0.2}))
        b.write_text(json.dumps({"tau": 0.2, "system": "df", "npts": 32}))
        ca = RunConfig.from_json(a)
        cb = RunConfig.from_json(b)
        assert ca.config_hash() == cb.config_hash()

    def test_hash_sensitive_to_values(self):
        assert RunConfig(tau=0.1).config_hash() != RunConfig(tau=0.2).config_hash()


class TestPersistence:
    def test_csv_roundtrip_full_precision(self, tmp_path):
        path = tmp_path / "t.csv"
        vals = [np.pi, 1.0 / 3.0, 6.02e23]
        write_csv(path, ["a", "b", "c"], [vals])
        cols, rows = read_csv(path)
        assert cols == ["a", "b", "c"]
        back = [float(x) for x in rows[0]]
        assert back == vals  # 17 significant digits reproduce doubles exactly

    def test_result_record_roundtrip(self, tmp_path):
        rec = ResultRecord("abc123", "0.1.0", {"x": [1.0, 2.0], "ok": True})
        path = tmp_path / "r.json"
        rec.write(path)
        back = ResultRecord.load(path)
        assert back.config_hash == "abc123"
        assert back.payload["x"] == [1.0, 2.0]

    def test_result_record_format_guard(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps({"format": "other", "config_hash": "x",
                                    "version": "0", "payload": {}}))
        with pytest.raises(FormatVersionMismatch):
            ResultRecord.load(path)


class TestCLI:
    def test_simulate_writes_artifacts(self, tmp_path):
        rc = main([
            "simulate", "--system", "tns", "--npts", "16", "--dim", "2",
            "--length", "6.283185307179586", "--horizon", "0.5", "--dt", "0.05",
            "--outdir", str(tmp_path), "--snapshot",
        ])
        assert rc == 0
        assert (tmp_path / "series.csv").exists()
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "final_varrho.dfs").exists()
        cols, rows = read_csv(tmp_path / "series.csv")
        assert cols[0] == "t" and len(rows) >= 2

    @pytest.mark.parametrize("argv", [
        ["relaxation", "--seed", "5"],
        ["verify", "--tau", "0.1"],
        ["decay", "--horizon", "5"],
        ["incompressible", "--dt", "0.01"],
    ])
    def test_unread_flags_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_readme_command_lines_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [ln.strip() for ln in readme.read_text().splitlines()
                 if ln.strip().startswith("driftflow ")]
        assert len(lines) >= 8
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_besov_subcommand_single_mode(self, tmp_path, rng, capsys):
        grid = Grid(2, 32, 5.0 * np.pi)
        c = np.zeros(grid.spectral_shape, dtype=np.complex128)
        c[7, 0] = 0.5
        c[-7, 0] = 0.5
        f = SpectralField(grid, c)
        snap = tmp_path / "mode.dfs"
        save_field(snap, f)
        rc = main(["besov", str(snap), "--norms", "1.0,2,1",
                   "--out", str(tmp_path / "norms.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        # single-block mode at radius 2.8 in block j=1: norm = 2^s * ||f||_L2
        from driftflow.spectral import l2_norm

        expected = 2.0 * l2_norm(f)
        val = float(out.strip().split()[-1])
        assert abs(val - expected) < 1e-9 * expected

    def test_linear_check_subcommand(self, tmp_path):
        rc = main(["linear", "--check", "oracle", "--outdir", str(tmp_path)])
        assert rc == 0
        body = json.loads((tmp_path / "linear.json").read_text())
        assert body["payload"]["checks"]["oracle"]["passed"]

    def test_error_exit_is_machine_readable(self, tmp_path, capsys):
        missing = tmp_path / "nope.dfs"
        missing.write_bytes(b"XXXXgarbage" + b"\0" * 64)
        rc = main(["besov", str(missing)])
        assert rc == 2
        err = capsys.readouterr().err
        body = json.loads(err.strip().split("\n")[-1])
        assert body["error"] == "FormatVersionMismatch"

    def test_truncated_snapshot_exit_is_machine_readable(self, tmp_path, capsys):
        grid = Grid(2, 16, 2.0 * np.pi)
        snap = tmp_path / "cut.dfs"
        save_field(snap, SpectralField(grid, np.ones(grid.spectral_shape, dtype=np.complex128)))
        snap.write_bytes(snap.read_bytes()[:-8])
        rc = main(["besov", str(snap)])
        assert rc == 2
        body = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert body["error"] == "FormatVersionMismatch"


def test_linear_all_checks_serialize(tmp_path):
    # criterion details carry nested per-band tables; the JSON record must
    # accept them (regression: mixed-type dict keys broke sorting)
    from driftflow.cli import main as cli_main

    rc = cli_main(["linear", "--check", "kernel-shapes", "--outdir", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "linear.json").read_text())
    assert body["payload"]["checks"]["kernel-shapes"]["passed"]


# subcommand -> (study function, the study kwargs its flags map to)
STUDY_FLAGS = {
    "relaxation": ("relaxation_study", {"grid", "T", "dt"}),
    "df-limit": ("df_limit_study", {"grid", "T", "dt"}),
    "decay": ("decay_study", {"grid", "dt"}),
    "incompressible": ("incompressible_study", {"grid", "T"}),
}


@pytest.mark.parametrize("command", sorted(STUDY_FLAGS))
def test_study_reads_the_config_file_keys(command, tmp_path, monkeypatch):
    # each key the subcommand has a flag for reaches the study, from the
    # config file or, overriding it, from the flag; the others do not
    from driftflow import studies

    name, expected = STUDY_FLAGS[command]
    seen = {}

    def fake_study(*args, **kwargs):
        seen.update(kwargs)
        return studies.StudyResult(command, "p", [], {}, {})

    monkeypatch.setattr(studies, name, fake_study)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"npts": 16, "length": 9.0, "horizon": 2.0, "dt": 0.02}))
    rc = main([command, "--config", str(cfg), "--length", "6.0", "--outdir", str(tmp_path)])
    assert rc == 0
    assert set(seen) - {"system", "sigma1"} == expected
    assert (seen["grid"].dim, seen["grid"].npts, seen["grid"].length) == (2, 16, 6.0)
    assert seen.get("T", 2.0) == 2.0 and seen.get("dt", 0.02) == 0.02
