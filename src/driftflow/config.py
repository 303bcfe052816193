"""
Declarative run configuration, canonical hashing, and result persistence.

Configs are plain JSON with full defaulting; unknown keys are rejected.
CSV output uses 17 significant digits so downstream fits reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
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

# the JSON values each annotated field type accepts; bool is excluded from
# the numbers because it is an int subclass
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
               "None": (type(None),)}


def read_config_file(path) -> dict:
    """The JSON object in a config file; ConfigError if it cannot be read,
    is not JSON, or is not an object."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    return data


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
        data = dict(data)
        for name, value in data.items():
            annotation = cls.__dataclass_fields__[name].type
            allowed = tuple(t for part in annotation.split("|") for t in _JSON_TYPES[part.strip()])
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise ConfigError(f"config key {name!r} must be {annotation}, not {value!r}")
            if float in allowed and isinstance(value, int):
                data[name] = float(value)  # so that 9 and 9.0 hash alike
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> "RunConfig":
        if self.prepared not in ("ill", "well"):
            raise ConfigError("prepared must be 'ill' or 'well'")
        try:
            system_spec(self.system)
            self.grid()
            self.params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise ConfigError(f"horizon must be finite and nonnegative, not {self.horizon}")
        for name in ("dt", "sample_dt"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, not {value}")
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
        return Scheme(dt=self.dt)

    def canonical_json(self) -> str:
        """Every field but ``outdir``, which names where results go, not what
        they are."""
        body = asdict(self)
        del body["outdir"]
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output files


def _jsonable(obj):
    """The plain-Python form of a result value, for JSON and CSV alike: numpy
    scalars and arrays as Python numbers and lists, a RateFit as its four
    numbers.  bool is tested before int, of which it is a subclass."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj.__class__.__name__ == "RateFit":
        return {
            "slope": obj.slope,
            "intercept": obj.intercept,
            "stderr": obj.stderr,
            "r_squared": obj.r_squared,
        }
    return obj


def _fmt(x) -> str:
    x = _jsonable(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_record(path, config: RunConfig, payload: dict) -> None:
    """Write one JSON result file: ``payload``, normalised by ``_jsonable``,
    in an envelope stamped with the format tag, the config hash and the
    package version."""
    body = {
        "format": FORMAT_TAG,
        "config_hash": config.config_hash(),
        "version": __version__,
        "payload": _jsonable(payload),
    }
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")


def study_to_files(study, config: RunConfig) -> dict:
    """Write a study's per-parameter CSV and its JSON record into the
    config's output directory."""
    outdir = Path(config.outdir)
    cols, rows = study.table()
    csv_path = outdir / f"{study.name}.csv"
    write_csv(csv_path, cols, rows)
    json_path = outdir / f"{study.name}.json"
    write_record(json_path, config, {
        "study": study.name,
        "parameter": study.parameter_name,
        "parameters": study.parameters,
        "fits": study.fits,
        "flags": study.flags,
        "details": study.details,
    })
    return {"csv": str(csv_path), "json": str(json_path)}
