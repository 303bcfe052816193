"""Configuration, persistence, and command-line surface tests."""

import inspect
import json
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftflow import __version__, acceptance, cli, studies
from driftflow.cli import build_parser, main
from driftflow.config import (FORMAT_TAG, RunConfig, _jsonable, read_config_file, write_csv,
                              write_record)
from driftflow.errors import ConfigError
from driftflow.spectral import Grid, SpectralField, save_field

from conftest import small_field


def read_csv(path):
    """The header and the rows of a CSV file written by ``write_csv``, as text."""
    lines = Path(path).read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def last_error(capsys) -> dict:
    """The JSON error object the CLI printed last on stderr."""
    return json.loads(capsys.readouterr().err.strip().split("\n")[-1])


def mode_snapshot(tmp_path):
    """A single-mode 2D N=32 field, saved; returns the path and the field."""
    grid = Grid(2, 32, 5.0 * np.pi)
    c = np.zeros(grid.spectral_shape, dtype=np.complex128)
    c[7, 0] = 0.5
    c[-7, 0] = 0.5
    f = SpectralField(grid, c)
    snap = tmp_path / "mode.dfs"
    save_field(snap, f)
    return snap, f


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
        with pytest.raises(ConfigError):  # bool is not an int
            RunConfig.from_dict({"seed": True})
        RunConfig.from_dict({"length": 9, "dt": None, "localized": True})  # int for float

    def test_hash_stable_under_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"system": "df", "npts": 32, "tau": 0.2}))
        b.write_text(json.dumps({"tau": 0.2, "system": "df", "npts": 32}))
        ca = RunConfig.from_dict(read_config_file(a))
        cb = RunConfig.from_dict(read_config_file(b))
        assert ca.config_hash() == cb.config_hash()

    def test_hash_reads_an_integer_float_as_the_float(self):
        assert (RunConfig.from_dict({"length": 9}).config_hash()
                == RunConfig.from_dict({"length": 9.0}).config_hash())

    def test_hash_sensitive_to_values(self):
        assert RunConfig(tau=0.1).config_hash() != RunConfig(tau=0.2).config_hash()

    def test_hash_ignores_the_output_directory(self):
        assert RunConfig(outdir="a").config_hash() == RunConfig(outdir="b").config_hash()

    def test_cfl_safety_is_not_a_key(self):
        # the CFL factor is the constant integrate.CFL_SAFETY
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"cfl_safety": 0.4})


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
        cfg = RunConfig(tau=0.2)
        path = tmp_path / "r.json"
        write_record(path, cfg, {"x": np.array([1.0, 2.0]), "ok": np.bool_(True)})
        body = json.loads(path.read_text())
        assert body["format"] == FORMAT_TAG
        assert body["config_hash"] == cfg.config_hash()
        assert body["version"] == __version__
        assert body["payload"] == {"x": [1.0, 2.0], "ok": True}
        assert body["payload"]["ok"] is True


# nested dicts, lists and tuples of the leaves a result payload holds
_LEAVES = st.one_of(
    st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2**62, 2**62), st.integers(-2**62, 2**62).map(np.int64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4).map(np.array),
    st.lists(st.booleans(), max_size=4).map(np.array),
)
_PAYLOADS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4),
), max_leaves=12)


def _plain(x):
    """The plain-Python structure of a payload, built without _jsonable."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (np.ndarray, np.generic)):
        return x.tolist()
    return x


def _bool_leaves_are_bools(a, b) -> bool:
    """Every leaf of the plain structure ``a`` that is a bool is one in ``b``."""
    if isinstance(a, dict):
        return all(_bool_leaves_are_bools(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return all(_bool_leaves_are_bools(x, y) for x, y in zip(a, b))
    return type(b) is bool if type(a) is bool else True


@given(_PAYLOADS)
def test_jsonable_round_trips_through_json(payload):
    plain = _plain(payload)
    back = json.loads(json.dumps(_jsonable(payload)))
    assert back == plain
    assert _bool_leaves_are_bools(plain, back)


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
        assert not (tmp_path / "final_state.json").exists()
        payload = json.loads((tmp_path / "summary.json").read_text())["payload"]
        assert payload["system"] == "tns" and payload["dt"] > 0
        assert payload["params"] == {"tau": 0.1, "eps": 1.0, "mu": 1.0, "lam": 0.0, "gamma": 3.0}
        assert payload["final_time"] == 0.5
        cols, rows = read_csv(tmp_path / "series.csv")
        assert cols[0] == "t" and len(rows) >= 2

    @pytest.mark.parametrize("command,module,name", [
        ("simulate", cli, "integrate"),
        ("relaxation", studies, "relaxation_study"),
        ("verify", acceptance, "run_suite"),
    ])
    def test_unwritable_outdir_is_a_config_error_before_any_run(
            self, command, module, name, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([command, "--outdir", str(blocker / "out")]) == 2
        assert last_error(capsys)["error"] == "ConfigError"
        assert calls == []

    @pytest.mark.parametrize("flags,config", [
        (["--horizon", "nan"], None),
        (["--horizon", "inf"], None),
        (["--dt", "nan"], None),
        ([], '{"horizon": NaN}'),
        ([], '{"sample_dt": Infinity}'),
        (["--npts", "16", "--length", "inf"], None),
        (["--tau", "inf"], None),
        (["--gamma", "inf"], None),
        ([], '{"lam": Infinity}'),
        (["--seed", "-1"], None),
        ([], '{"seed": -3}'),
        (["--amplitude", "inf"], None),
        (["--amplitude", "nan"], None),
        ([], '{"rho_amplitude": Infinity}'),
        ([], '{"rho_floor": NaN}'),
        ([], '{"k_lo": NaN}'),
        ([], '{"k_hi": Infinity}'),
        ([], '{"sigma1": -Infinity}'),
    ], ids=["horizon-nan", "horizon-inf", "dt-nan", "config-horizon-nan",
            "config-sample-dt-inf", "length-inf", "tau-inf", "gamma-inf", "config-lam-inf",
            "seed-negative", "config-seed-negative", "amplitude-inf", "amplitude-nan",
            "config-rho-amplitude-inf", "config-rho-floor-nan", "config-k-lo-nan",
            "config-k-hi-inf", "config-sigma1-inf"])
    def test_non_finite_run_length_is_a_config_error_before_any_run(
            self, flags, config, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **kw: calls.append(a))
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            flags = flags + ["--config", str(tmp_path / "cfg.json")]
        assert main(["simulate", "--outdir", str(tmp_path), *flags]) == 2
        assert last_error(capsys)["error"] == "ConfigError"
        assert calls == []

    @pytest.mark.parametrize("argv", [
        ["relaxation", "--seed", "5"],
        ["verify", "--tau", "0.1"],
        ["decay", "--horizon", "5"],
        ["incompressible", "--dt", "0.01"],
        ["verify", "--suite", "linear_oracel"],
        ["verify", "--suite", "linear_oracle,"],
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
        snap, f = mode_snapshot(tmp_path)
        rc = main(["besov", str(snap), "--norms", "1.0,2,1",
                   "--out", str(tmp_path / "norms.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        # single-block mode at radius 2.8 in block j=1: norm = 2^s * ||f||_L2
        from driftflow.spectral import l2_norm

        expected = 2.0 * l2_norm(f)
        val = float(out.strip().split()[-1])
        assert abs(val - expected) < 1e-9 * expected

    @pytest.mark.parametrize("norms", ["0,2", "a,b,c", "nan,2,1"],
                             ids=["two-numbers", "not-numbers", "s-not-finite"])
    def test_besov_malformed_norms_are_a_usage_error(self, norms, tmp_path):
        snap, _ = mode_snapshot(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["besov", str(snap), "--norms", norms])
        assert exc.value.code == 2

    @pytest.mark.parametrize("norms", ["0,2,0", "0,2,-1"], ids=["r-zero", "r-negative"])
    def test_besov_unsupported_index_exit_is_machine_readable(self, norms, tmp_path, capsys):
        snap, _ = mode_snapshot(tmp_path)
        assert main(["besov", str(snap), "--norms", norms]) == 2
        assert last_error(capsys)["error"] == "UnsupportedP"

    def test_besov_out_under_a_file_is_a_config_error_before_any_norm(
            self, tmp_path, capsys, monkeypatch):
        snap, _ = mode_snapshot(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("")
        calls = []
        monkeypatch.setattr(cli, "besov_norm", lambda *a: calls.append(a) or 0.0)
        rc = main(["besov", str(snap), "--out", str(blocker / "n.csv")])
        assert rc == 2
        assert last_error(capsys)["error"] == "ConfigError"
        assert calls == []

    def test_coefficient_outside_the_band_exit_is_machine_readable(self, tmp_path, capsys):
        # a version-2 file whose half spectrum holds a mode beyond the 2/3 rule
        grid = Grid(2, 16, 2.0 * np.pi)
        snap = tmp_path / "wide.dfs"
        save_field(snap, SpectralField(grid, np.ones(grid.spectral_shape, dtype=np.complex128)))
        raw = bytearray(snap.read_bytes())
        raw[-16:] = np.array([1.0 + 0.0j], dtype="<c16").tobytes()  # index (N-1, N/2)
        snap.write_bytes(bytes(raw))
        assert main(["besov", str(snap)]) == 2
        err = last_error(capsys)
        assert err["error"] == "FormatVersionMismatch"
        assert "outside the retained band" in err["message"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_snapshot_exit_is_machine_readable(self, value, tmp_path, capsys):
        # one band mode holds a non-finite value; save_field writes it as is
        snap, f = mode_snapshot(tmp_path)
        f.coeffs[7, 0] = value
        save_field(snap, f)
        assert main(["besov", str(snap)]) == 2
        err = last_error(capsys)
        assert err["error"] == "FormatVersionMismatch"
        assert "non-finite" in err["message"]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("config", ['{"k_lo": 3.0, "k_hi": 0.5}', '{"k_lo": -1.0, "k_hi": -0.5}',
                                        '{"k_lo": 50.0, "k_hi": 60.0}'],
                             ids=["reversed", "negative", "beyond-the-grid"])
    def test_bad_velocity_band_is_a_config_error(self, config, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "integrate", lambda *a, **kw: calls.append(a))
        (tmp_path / "cfg.json").write_text(config)
        argv = ["simulate", "--outdir", str(tmp_path), "--config", str(tmp_path / "cfg.json"),
                "--npts", "32", "--length", str(8.0 * np.pi)]
        assert main(argv) == 2
        assert last_error(capsys)["error"] == "ConfigError"
        assert calls == []

    def test_decay_on_a_box_below_its_band_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(studies, "integrate", lambda *a, **kw: calls.append(a))
        argv = ["decay", "--outdir", str(tmp_path), "--npts", "16", "--length", "10"]
        assert main(argv) == 2
        err = last_error(capsys)
        assert err["error"] == "ConfigError" and "holds no mode" in err["message"]
        assert calls == []

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_snapshot_exit_is_machine_readable(self, kind, tmp_path, capsys):
        path = tmp_path / "missing.dfs" if kind == "missing" else tmp_path
        assert main(["besov", str(path)]) == 2
        assert last_error(capsys)["error"] == "FormatVersionMismatch"

    def test_error_exit_is_machine_readable(self, tmp_path, capsys):
        missing = tmp_path / "nope.dfs"
        missing.write_bytes(b"XXXXgarbage" + b"\0" * 64)
        rc = main(["besov", str(missing)])
        assert rc == 2
        assert last_error(capsys)["error"] == "FormatVersionMismatch"

    @pytest.mark.parametrize("text", ['{"npts": 16,', '{"npts": "16"}'],
                             ids=["invalid-json", "wrong-type"])
    def test_malformed_config_exit_is_machine_readable(self, text, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["simulate", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert rc == 2
        assert last_error(capsys)["error"] == "ConfigError"

    def test_truncated_snapshot_exit_is_machine_readable(self, tmp_path, capsys):
        grid = Grid(2, 16, 2.0 * np.pi)
        snap = tmp_path / "cut.dfs"
        save_field(snap, SpectralField(grid, np.ones(grid.spectral_shape, dtype=np.complex128)))
        snap.write_bytes(snap.read_bytes()[:-8])
        rc = main(["besov", str(snap)])
        assert rc == 2
        assert last_error(capsys)["error"] == "FormatVersionMismatch"


def test_verify_suite_list_runs_in_table_order(tmp_path, capsys):
    # a comma list runs exactly the named criteria, in table order; the
    # kernel-shape details carry nested per-band tables, which the JSON record
    # must accept (regression: mixed-type dict keys broke sorting)
    rc = main(["verify", "--suite", "frequency_shapes,linear_oracle", "--outdir", str(tmp_path)])
    assert rc == 0
    verdicts = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[")]
    assert [ln.split("  (")[0] for ln in verdicts] == [
        "[PASS] linear oracle equivalence", "[PASS] frequency-localized kernel shapes"]
    results = json.loads((tmp_path / "verify.json").read_text())["payload"]["results"]
    assert set(results) == {"linear_oracle", "frequency_shapes", "verdict"}
    assert results["verdict"] == "pass"
    assert results["frequency_shapes"]["details"]["high"]["tau_0.1"]["R"] > 0


def test_verify_json_booleans_are_json_booleans(tmp_path, monkeypatch):
    # numpy and Python bools alike, in verdicts and in details
    result = acceptance.CriterionResult("drift-flux limit", np.bool_(True), 1.0, 10.0, {
        "monotone": np.bool_(True), "profile_monotone": False, "rates": [np.bool_(False)]})
    monkeypatch.setattr(acceptance, "run_suite", lambda names: [("df_limit", result)])
    assert main(["verify", "--suite", "df_limit", "--outdir", str(tmp_path)]) == 0
    text = (tmp_path / "verify.json").read_text()
    entry = json.loads(text)["payload"]["results"]["df_limit"]
    assert entry["passed"] is True
    details = entry["details"]
    assert details["monotone"] is True and details["profile_monotone"] is False
    assert details["rates"][0] is False
    assert '"passed": true' in text


# subcommand -> (study function, the study kwargs its flags map to)
STUDY_FLAGS = {
    "relaxation": ("relaxation_study", {"grid", "T", "dt"}),
    "df-limit": ("df_limit_study", {"grid", "T", "dt"}),
    "decay": ("decay_study", {"grid", "dt"}),
    "incompressible": ("incompressible_study", {"grid", "T"}),
}


@pytest.mark.parametrize("command", sorted(STUDY_FLAGS))
def test_study_prints_its_notes(command, tmp_path, monkeypatch, capsys):
    flag = "two-dimensional exponent family"
    monkeypatch.setattr(studies, STUDY_FLAGS[command][0], lambda *a, **kw: studies.StudyResult(
        command, "p", [], {}, {}, [flag]))
    assert main([command, "--outdir", str(tmp_path)]) == 0
    assert f"note: {flag}" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(STUDY_FLAGS))
def test_study_reads_the_config_file_keys(command, tmp_path, monkeypatch):
    # each key the subcommand has a flag for reaches the study, from the
    # config file or, overriding it, from the flag; the others do not
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


@pytest.mark.parametrize("values", ["0.2,abc", "0.2,nan,0.1", "-0.1,0.2,0.3", "0.2,0.1",
                                    "0.1,0.1,0.1"],
                         ids=["not-a-number", "nan", "negative", "two-values", "all-equal"])
def test_malformed_values_are_a_usage_error(values, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(studies, "relaxation_study", lambda *a, **kw: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["relaxation", "--npts", "16", "--horizon", "0.5", f"--values={values}",
              "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert calls == []


class StudyCalled(Exception):
    """Raised by the study spy in place of running the study."""


# subcommand argv -> (its study, the criterion that runs it, which of the
# criterion's calls of the study it is)
PARITY = {
    "relaxation": ("relaxation_study", "criterion_relaxation_rates", 0),
    "df-limit": ("df_limit_study", "criterion_df_limit", 0),
    "decay": ("decay_study", "criterion_nonlinear_decay", 0),
    "incompressible": ("incompressible_study", "criterion_incompressible", 0),
    "incompressible --variant euler_ns_scaled": (
        "incompressible_study", "criterion_incompressible", 1),
}


@pytest.mark.parametrize("command", sorted(PARITY))
def test_study_subcommand_makes_the_criterion_call(command, tmp_path, monkeypatch):
    # each call is bound to the study's signature with its defaults applied,
    # then the spy raises, so no study runs; calls before the wanted one get
    # an empty low-Mach result, which is all a criterion reads between calls
    name, criterion, index = PARITY[command]
    signature = inspect.signature(getattr(studies, name))
    fit = studies.RateFit(0.1, 0.0, 0.0, 1.0, [])
    calls, skip = [], 0

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        if len(calls) > skip:
            raise StudyCalled
        return studies.StudyResult(name, "eps", [], {"acoustic_norm": []},
                                   {"acoustic_norm": fit})

    monkeypatch.setattr(studies, name, spy)
    with pytest.raises(StudyCalled):
        main(shlex.split(command) + ["--outdir", str(tmp_path)])
    cli_call = calls.pop()
    skip = index
    with pytest.raises(StudyCalled):
        getattr(acceptance, criterion)()
    assert len(calls) == index + 1
    assert cli_call == calls[index]
