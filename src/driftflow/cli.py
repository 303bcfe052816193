"""
Command-line surface: single simulations, the four rate studies, snapshot
norms, and the acceptance battery.

The four study subcommands share ``cmd_study``; each parser's defaults name
its study and its own options, and a subcommand at its defaults makes the
acceptance battery's call of its study.  ``--values`` takes a comma list of
at least three positive finite numbers, two of them distinct.  ``verify
--suite`` takes 'desk' or a comma list of the criterion names of
``acceptance.ALL_CRITERIA`` (the linear-theory checks are three of them); any
other value is a usage error.  Every subcommand but ``besov`` creates the
output directory before it runs anything, writes its CSV and JSON artifacts
there (the JSON through ``config.write_record``) and exits 0 only if its
in-scope checks pass; ``besov`` creates the directory of ``--out`` before it
loads the snapshot.  A directory that cannot be made is a ``ConfigError``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, acceptance, studies
from .besov import besov_norm
from .config import RunConfig, read_config_file, study_to_files, write_csv, write_record
from .errors import ConfigError, DriftflowError
from .initial_data import initial_state
from .integrate import BlockObserver, ScalarObserver, Scheme, integrate
from .spectral import l2_norm, linf_norm, load_field, save_field
from .systems import SYSTEMS, system_spec


def _load_config(args) -> tuple[RunConfig, set]:
    """The run config, flags over the --config file over the defaults, and
    the keys that the file or a flag set.  Creates the output directory, so
    that one that cannot be made is a ConfigError before any run."""
    data = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {k: v for k in RunConfig.field_names() if (v := getattr(args, k, None)) is not None}
    cfg = RunConfig.from_dict({**data, **flags})
    try:
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.outdir}: {exc}") from None
    return cfg, set(data) | set(flags)


def cmd_simulate(args) -> int:
    cfg, _ = _load_config(args)
    eps = system_spec(cfg.system).mach(cfg.params())
    if eps != cfg.eps:
        raise ConfigError(f"system {cfg.system} runs at eps = {eps:g}, not {cfg.eps:g}; "
                          "the _scaled systems take eps")
    outdir = Path(cfg.outdir)
    state0 = initial_state(cfg.system, cfg.grid(), cfg.recipe())
    fields = list(state0.fields())
    obs = [ScalarObserver(f"l2_{k}", lambda s, t, k=k: l2_norm(s.fields()[k])) for k in fields]
    obs += [ScalarObserver(f"linf_{k}", lambda s, t, k=k: linf_norm(s.fields()[k])) for k in fields]
    if system_spec(cfg.system).has_drag:
        obs.append(BlockObserver("rel", lambda s: s.u - s.v))
    traj = integrate(state0, cfg.horizon, Scheme(dt=cfg.dt), cfg.params(), cfg.system,
                     obs, cfg.sample_dt)
    cols = ["t"] + sorted(traj.scalars)
    rows = [[traj.times[i]] + [traj.scalars[k][i] for k in sorted(traj.scalars)]
            for i in range(len(traj.times))]
    write_csv(outdir / "series.csv", cols, rows)
    if args.snapshot:
        for k, f in traj.meta["final_state"].fields().items():
            save_field(outdir / f"final_{k}.dfs", f)
    write_record(outdir / "summary.json", cfg, {
        "kind": "simulate",
        "system": cfg.system,
        "params": asdict(cfg.params()),
        "dt": traj.meta["dt_main"],
        "mass_drift": traj.meta["mass_drift"],
        "steps": traj.meta["steps"],
        "t_ramp": traj.meta["t_ramp"],
        "final_time": traj.times[-1],
    })
    print(f"simulated {cfg.system} to t={traj.times[-1]:g} "
          f"({traj.meta['steps']} steps, mass drift {traj.meta['mass_drift']:.2e})")
    print(f"wrote {outdir}/series.csv")
    return 0


def _study_config(args) -> tuple[RunConfig, dict]:
    """The run config and the study's grid/horizon/step overrides: each key
    the subcommand has a flag for, set by that flag or by the config file."""
    cfg, given = _load_config(args)
    given &= set(vars(args))
    kwargs = {}
    if given & set(_GRID_FLAGS):
        kwargs["grid"] = cfg.grid()
    if "horizon" in given:
        kwargs["T"] = cfg.horizon
    if "dt" in given and cfg.dt is not None:
        kwargs["dt"] = cfg.dt
    return cfg, kwargs


def cmd_study(args) -> int:
    """Run the subcommand's study (set by its parser): over ``--values`` if
    given, else its default sweep, with its own options and the keys of
    ``_study_config``."""
    cfg, kwargs = _study_config(args)
    kwargs.update({key: val for key, flag in args.options.items()
                   if (val := getattr(args, flag)) is not None})
    runner = getattr(studies, args.study)
    values = getattr(args, "values", None)
    study = runner(values, **kwargs) if values else runner(**kwargs)
    files = study_to_files(study, cfg)
    target = f" (target {study.details['target']:g})" if "target" in study.details else ""
    for key, fit in study.fits.items():
        print(f"{args.command}: {key}: {fit}{target}")
    for flag in study.flags:
        print(f"note: {flag}")
    print(f"wrote {files['csv']} and {files['json']}")
    return 0


def cmd_besov(args) -> int:
    if args.out:
        try:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc}") from None
    f = load_field(args.snapshot)
    rows = []
    for s, p, r in args.norms:
        val = besov_norm(f, s, p, r)
        rows.append([s, p, r, val])
        print(f"s={s:g} p={p:g} r={r:g}: {val:.12g}")
    if args.out:
        write_csv(args.out, ["s", "p", "r", "norm"], rows)
    return 0


def cmd_verify(args) -> int:
    cfg, _ = _load_config(args)
    names = None if args.suite == "desk" else args.suite.split(",")
    results = acceptance.run_suite(names)
    payload = {
        name: {"passed": r.passed, "elapsed": r.elapsed, "budget": r.budget,
               "details": r.details}
        for name, r in results
    }
    ok = all(r.passed for _, r in results)
    payload["verdict"] = "pass" if ok else "fail"
    path = Path(cfg.outdir) / "verify.json"
    write_record(path, cfg, {"kind": "verify", "suite": args.suite, "results": payload})
    print(f"verdict: {payload['verdict']}  ({sum(r.passed for _, r in results)}"
          f"/{len(results)} criteria)")
    print(f"wrote {path}")
    return 0 if ok else 1


_RUN_FLAGS = {"seed": int, "system": str, "dim": int, "npts": int, "length": float,
              "tau": float, "eps": float, "mu": float, "lam": float, "gamma": float,
              "amplitude": float, "dt": float, "horizon": float}
_GRID_FLAGS = ("dim", "npts", "length")


def _suite(text: str) -> str:
    """--suite: 'desk', or a comma list of criterion names; anything else is
    a usage error, raised before any criterion runs."""
    known = [name for name, _ in acceptance.ALL_CRITERIA]
    if text != "desk" and not set(text.split(",")) <= set(known):
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither 'desk' nor a comma list of {', '.join(known)}")
    return text


def _values(text: str) -> list[float]:
    """--values: a comma list of at least 3 positive finite numbers, two of
    them distinct, the least a rate fit takes; anything else is a usage
    error, raised before any study runs."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if (len(values) < 3 or len(set(values)) < 2
            or not all(math.isfinite(v) and v > 0 for v in values)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of at least 3 "
                                         "positive finite numbers, two of them distinct")
    return values


def _norms(text: str) -> list[tuple[float, float, float]]:
    """--norms: semicolon-separated s,p,r triples of numbers, s finite;
    anything else is a usage error.  besov_norm checks p and r."""
    triples = []
    for item in text.split(";"):
        try:
            s, p, r = (float(x) for x in item.split(","))
            ok = math.isfinite(s)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(
                f"{item!r} is not an s,p,r triple of numbers with a finite s")
        triples.append((s, p, r))
    return triples


def _add_config_flags(p, *names):
    """--config and --outdir, plus the RunConfig flags the subcommand reads."""
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--outdir", help="output directory")
    for name in names:
        choices = list(SYSTEMS) if name == "system" else None
        p.add_argument(f"--{name}", type=_RUN_FLAGS[name], choices=choices)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="driftflow",
        description="Spectral two-phase flow simulations and singular-limit rate checks",
    )
    ap.add_argument("--version", action="version", version=f"driftflow {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one trajectory and record norms")
    _add_config_flags(p, *_RUN_FLAGS)
    p.add_argument("--snapshot", action="store_true", help="store final-state snapshots")
    p.set_defaults(fn=cmd_simulate)

    # each study subcommand: the studies function and the study kwargs its
    # own flags set; the study's defaults are the battery's run
    p = sub.add_parser("relaxation", help="friction-time sweep of the velocity mismatch")
    _add_config_flags(p, *_GRID_FLAGS, "dt", "horizon")
    p.add_argument("--values", type=_values, help="comma-separated tau values")
    p.set_defaults(fn=cmd_study, study="relaxation_study", options={})

    p = sub.add_parser("df-limit", help="two-phase versus drift-flux error sweep")
    _add_config_flags(p, *_GRID_FLAGS, "dt", "horizon")
    p.add_argument("--values", type=_values, help="comma-separated tau values")
    p.set_defaults(fn=cmd_study, study="df_limit_study", options={})

    p = sub.add_parser("decay", help="large-time decay exponents on the torus")
    _add_config_flags(p, *_GRID_FLAGS, "dt")
    p.add_argument("--sigma1", type=float, help="low-frequency regularity index")
    p.set_defaults(fn=cmd_study, study="decay_study", options={"sigma1": "sigma1"})

    p = sub.add_parser("incompressible", help="Mach-number sweep of acoustic norms")
    _add_config_flags(p, *_GRID_FLAGS, "horizon")
    p.add_argument("--values", type=_values, help="comma-separated eps values")
    p.add_argument("--variant", default="df_scaled",
                   choices=["df_scaled", "euler_ns_scaled"])
    p.set_defaults(fn=cmd_study, study="incompressible_study", options={"system": "variant"})

    p = sub.add_parser("besov", help="norms of a stored field snapshot")
    p.add_argument("snapshot", help="snapshot file")
    p.add_argument("--norms", default="0,2,1", type=_norms,
                   help="semicolon-separated s,p,r triples, p in {1,2,4,inf}, r >= 1")
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(fn=cmd_besov)

    p = sub.add_parser("verify", help="run the acceptance battery")
    _add_config_flags(p)
    p.add_argument("--suite", default="desk", type=_suite,
                   help="'desk' for everything, or comma-separated criterion names")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except DriftflowError as exc:
        err = {"error": exc.__class__.__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
