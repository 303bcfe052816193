"""
Command-line surface: single simulations, the four rate studies, linear
analysis, snapshot norms, and the acceptance battery.

Every subcommand writes CSV/JSON artifacts into the output directory and
exits 0 only if its in-scope checks pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, acceptance, studies
from .besov import BesovSpec, besov_norm, family_for
from .config import RunConfig, _jsonable, record_for, study_to_files, write_csv
from .errors import DriftflowError
from .initial_data import initial_state
from .integrate import BlockObserver, ScalarObserver, integrate
from .spectral import l2_norm, linf_norm, load_field, save_field
from .systems import SYSTEMS, system_spec


def _load_config(args) -> tuple[RunConfig, set]:
    """The run config, flags over the --config file over the defaults, and
    the keys that the file or a flag set."""
    data = json.loads(Path(args.config).read_text()) if getattr(args, "config", None) else {}
    flags = {k: v for k in RunConfig.field_names() if (v := getattr(args, k, None)) is not None}
    return RunConfig.from_dict({**data, **flags}), set(data) | set(flags)


def cmd_simulate(args) -> int:
    cfg, _ = _load_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    state0 = initial_state(cfg.system, cfg.grid(), cfg.recipe())
    fields = list(state0.fields())
    obs = [ScalarObserver(f"l2_{k}", lambda s, t, k=k: l2_norm(s.fields()[k])) for k in fields]
    obs += [ScalarObserver(f"linf_{k}", lambda s, t, k=k: linf_norm(s.fields()[k])) for k in fields]
    if system_spec(cfg.system).has_drag:
        obs.append(BlockObserver("rel", lambda s: s.u - s.v))
    traj = integrate(state0, cfg.horizon, cfg.scheme_obj(), cfg.params(), cfg.system,
                     obs, cfg.sample_dt)
    cols = ["t"] + sorted(traj.scalars)
    rows = [[traj.times[i]] + [traj.scalars[k][i] for k in sorted(traj.scalars)]
            for i in range(len(traj.times))]
    write_csv(outdir / "series.csv", cols, rows)
    if args.snapshot:
        final = traj.meta["final_state"]
        for k, f in final.fields().items():
            save_field(outdir / f"final_{k}.dfs", f)
        sidecar = {
            "time": float(traj.times[-1]),
            "system": cfg.system,
            "params": {"tau": cfg.tau, "eps": cfg.eps, "mu": cfg.mu,
                       "lam": cfg.lam, "gamma": cfg.gamma},
            "dt": traj.meta["dt_main"],
            "config_hash": cfg.config_hash(),
        }
        (outdir / "final_state.json").write_text(json.dumps(sidecar, indent=2) + "\n")
    rec = record_for(cfg, {
        "kind": "simulate",
        "mass_drift": traj.meta["mass_drift"],
        "steps": traj.meta["steps"],
        "t_ramp": traj.meta["t_ramp"],
        "final_time": float(traj.times[-1]),
    })
    rec.write(outdir / "summary.json")
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


def _study_command(args, runner, default_params, name) -> int:
    cfg, kwargs = _study_config(args)
    values = [float(x) for x in args.values.split(",")] if args.values else default_params
    study = runner(values, **kwargs)
    files = study_to_files(study, cfg.outdir, cfg)
    for key, fit in study.fits.items():
        print(f"{name}: {key}: {fit}")
    for flag in study.flags:
        print(f"note: {flag}")
    print(f"wrote {files['csv']} and {files['json']}")
    return 0


def cmd_relaxation(args) -> int:
    return _study_command(
        args, lambda v, **kw: studies.relaxation_study(v, **kw),
        [0.2, 0.1, 0.05, 0.025], "relaxation")


def cmd_df_limit(args) -> int:
    return _study_command(
        args, lambda v, **kw: studies.df_limit_study(v, **kw),
        [0.2, 0.1, 0.05], "df-limit")


def cmd_decay(args) -> int:
    cfg, kwargs = _study_config(args)
    study = studies.decay_study(sigma1=args.sigma1 if args.sigma1 is not None else -1.0,
                                **kwargs)
    files = study_to_files(study, cfg.outdir, cfg)
    for key, fit in study.fits.items():
        print(f"decay: {key}: {fit} (target {study.details['target']:g})")
    for flag in study.flags:
        print(f"note: {flag}")
    print(f"wrote {files['csv']} and {files['json']}")
    return 0


def cmd_incompressible(args) -> int:
    cfg, kwargs = _study_config(args)
    values = [float(x) for x in args.values.split(",")] if args.values else [0.4, 0.2, 0.1, 0.05]
    study = studies.incompressible_study(values, system=args.variant, **kwargs)
    files = study_to_files(study, cfg.outdir, cfg)
    for key, fit in study.fits.items():
        print(f"incompressible: {key}: {fit}")
    print(f"wrote {files['csv']} and {files['json']}")
    return 0


def cmd_linear(args) -> int:
    cfg, _ = _load_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    checks = {
        "oracle": acceptance.criterion_linear_oracle,
        "kernel-shapes": acceptance.criterion_frequency_shapes,
        "decay-sandwich": acceptance.criterion_decay_sandwich,
    }
    names = list(checks) if args.check == "all" else [args.check]
    all_ok = True
    payload = {}
    for n in names:
        res = checks[n]()
        print(res.line())
        payload[n] = {"passed": res.passed, "elapsed": res.elapsed,
                      "details": _jsonable(res.details)}
        all_ok &= res.passed
    record_for(cfg, {"kind": "linear", "checks": payload}).write(outdir / "linear.json")
    print(f"wrote {outdir}/linear.json")
    return 0 if all_ok else 1


def cmd_besov(args) -> int:
    f = load_field(args.snapshot)
    fam = family_for(f.grid)
    rows = []
    for spec_str in args.norms.split(";"):
        s, p, r = (float(x) for x in spec_str.split(","))
        val = besov_norm(f, BesovSpec(s=s, p=p, r=r), fam)
        rows.append([s, p, r, val])
        print(f"s={s:g} p={p:g} r={r:g}: {val:.12g}")
    if args.out:
        write_csv(args.out, ["s", "p", "r", "norm"], rows)
    return 0


def cmd_verify(args) -> int:
    cfg, _ = _load_config(args)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = None if args.suite == "desk" else [args.suite]
    results = acceptance.run_suite(names)
    payload = {
        name: {"passed": r.passed, "elapsed": r.elapsed, "budget": r.budget,
               "details": _jsonable(r.details)}
        for name, r in results
    }
    ok = all(r.passed for _, r in results)
    payload["verdict"] = "pass" if ok else "fail"
    record_for(cfg, {"kind": "verify", "suite": args.suite, "results": payload}).write(
        outdir / "verify.json")
    print(f"verdict: {payload['verdict']}  ({sum(r.passed for _, r in results)}"
          f"/{len(results)} criteria)")
    print(f"wrote {outdir}/verify.json")
    return 0 if ok else 1


_RUN_FLAGS = {"seed": int, "system": str, "dim": int, "npts": int, "length": float,
              "tau": float, "eps": float, "mu": float, "lam": float, "gamma": float,
              "amplitude": float, "dt": float, "horizon": float}
_GRID_FLAGS = ("dim", "npts", "length")


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

    p = sub.add_parser("relaxation", help="friction-time sweep of the velocity mismatch")
    _add_config_flags(p, *_GRID_FLAGS, "dt", "horizon")
    p.add_argument("--values", help="comma-separated tau values")
    p.set_defaults(fn=cmd_relaxation)

    p = sub.add_parser("df-limit", help="two-phase versus drift-flux error sweep")
    _add_config_flags(p, *_GRID_FLAGS, "dt", "horizon")
    p.add_argument("--values", help="comma-separated tau values")
    p.set_defaults(fn=cmd_df_limit)

    p = sub.add_parser("decay", help="large-time decay exponents on the torus")
    _add_config_flags(p, *_GRID_FLAGS, "dt")
    p.add_argument("--sigma1", type=float, help="low-frequency regularity index")
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("incompressible", help="Mach-number sweep of acoustic norms")
    _add_config_flags(p, *_GRID_FLAGS, "horizon")
    p.add_argument("--values", help="comma-separated eps values")
    p.add_argument("--variant", default="df_scaled",
                   choices=["df_scaled", "euler_ns_scaled"])
    p.set_defaults(fn=cmd_incompressible)

    p = sub.add_parser("linear", help="per-mode linear theory checks")
    _add_config_flags(p)
    p.add_argument("--check", default="all",
                   choices=["all", "oracle", "kernel-shapes", "decay-sandwich"])
    p.set_defaults(fn=cmd_linear)

    p = sub.add_parser("besov", help="norms of a stored field snapshot")
    p.add_argument("snapshot", help="snapshot file")
    p.add_argument("--norms", default="0,2,1", help="semicolon-separated s,p,r triples")
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(fn=cmd_besov)

    p = sub.add_parser("verify", help="run the acceptance battery")
    _add_config_flags(p)
    p.add_argument("--suite", default="desk",
                   help="'desk' for everything, or one criterion name")
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
