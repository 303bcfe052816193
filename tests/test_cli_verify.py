"""End-to-end check of the acceptance subcommand on its fastest criterion."""

import json

from driftflow.cli import main


def test_verify_single_criterion_writes_verdict(tmp_path):
    rc = main(["verify", "--suite", "linear_oracle", "--outdir", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "verify.json").read_text())
    results = body["payload"]["results"]
    assert results["verdict"] == "pass"
    assert results["linear_oracle"]["passed"] is True
    assert results["linear_oracle"]["elapsed"] < results["linear_oracle"]["budget"]
