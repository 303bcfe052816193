"""
Declarative run configuration, canonical hashing, and result persistence.

Configs are plain JSON with full defaulting; unknown keys are rejected.
CSV output uses 17 significant digits so downstream fits reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .initial_data import DataRecipe
from .integrate import Scheme
from .spectral import Grid, PhysParams
from .systems import system_spec

FORMAT_TAG = "driftflow-io-1"


@dataclass
class RunConfig:
    system: str = "euler_ns"
    dim: int = 2
    npts: int = 64
    length: float = 16.0 * np.pi
    tau: float = 0.1
    eps: float = 1.0
    mu: float = 1.0
    lam: float = 0.0
    gamma: float = 3.0
    amplitude: float = 0.05
    rho_amplitude: float = 0.05
    rho_floor: float = 1e-4
    seed: int = 0
    prepared: str = "ill"
    sigma1: float | None = None
    localized: bool = False
    k_lo: float = 0.5
    k_hi: float = 3.0
    dt: float | None = None
    cfl_safety: float = 0.4
    horizon: float = 20.0
    sample_dt: float | None = None
    outdir: str = "runs"

    @classmethod
    def field_names(cls):
        return {f for f in cls.__dataclass_fields__}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def validate(self) -> "RunConfig":
        if self.prepared not in ("ill", "well"):
            raise ConfigError("prepared must be 'ill' or 'well'")
        try:
            system_spec(self.system)
            self.grid()
            self.params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.horizon < 0:
            raise ConfigError("horizon must be nonnegative")
        if self.dt is not None and self.dt <= 0:
            raise ConfigError("dt must be positive")
        return self

    def grid(self) -> Grid:
        return Grid(self.dim, self.npts, self.length)

    def params(self) -> PhysParams:
        return PhysParams(tau=self.tau, eps=self.eps, mu=self.mu, lam=self.lam, gamma=self.gamma)

    def recipe(self) -> DataRecipe:
        return DataRecipe(
            amplitude=self.amplitude,
            rho_amplitude=self.rho_amplitude,
            rho_floor=self.rho_floor,
            seed=self.seed,
            prepared=self.prepared,
            k_band=(self.k_lo, self.k_hi),
            sigma1=self.sigma1,
            localized=self.localized,
        )

    def scheme_obj(self) -> Scheme:
        return Scheme(dt=self.dt, cfl_safety=self.cfl_safety)

    def canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output files


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    cols = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return cols, rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if hasattr(obj, "__dict__") and obj.__class__.__name__ == "RateFit":
        return {
            "slope": obj.slope,
            "intercept": obj.intercept,
            "stderr": obj.stderr,
            "r_squared": obj.r_squared,
        }
    return obj


@dataclass
class ResultRecord:
    """Summary of one run or study, addressable by its config hash."""

    config_hash: str
    version: str
    payload: dict

    def to_json(self) -> str:
        body = {
            "format": FORMAT_TAG,
            "config_hash": self.config_hash,
            "version": self.version,
            "payload": _jsonable(self.payload),
        }
        return json.dumps(body, indent=2, sort_keys=True)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ResultRecord":
        body = json.loads(Path(path).read_text())
        if body.get("format") != FORMAT_TAG:
            from .errors import FormatVersionMismatch

            raise FormatVersionMismatch(f"unknown result format {body.get('format')!r}")
        return cls(body["config_hash"], body["version"], body["payload"])


def record_for(config: RunConfig, payload: dict) -> ResultRecord:
    return ResultRecord(config.config_hash(), __version__, payload)


def study_to_files(study, outdir, config: RunConfig | None = None) -> dict:
    """Emit the per-parameter CSV and the JSON summary for a study."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cols, rows = study.table()
    csv_path = outdir / f"{study.name}.csv"
    write_csv(csv_path, cols, rows)
    payload = {
        "study": study.name,
        "parameter": study.parameter_name,
        "parameters": list(study.parameters),
        "fits": {k: _jsonable(v) for k, v in study.fits.items()},
        "flags": study.flags,
        "details": _jsonable(study.details),
    }
    rec = ResultRecord(config.config_hash() if config else "-", __version__, payload)
    json_path = outdir / f"{study.name}.json"
    rec.write(json_path)
    return {"csv": str(csv_path), "json": str(json_path)}
