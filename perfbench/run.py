"""
Rate-sweep benchmark for driftflow.

    python3 perfbench/run.py --workload dflimit_3d --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer ones.  The program
is imported from ``src/`` next to this directory.  A record of the run is
written to ``perfbench/out/``.  See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seconds_since_process_start() -> float:
    """Age of this process, from the kernel's record of its start; falls back
    to the time since this file began executing."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
        if 0.0 < age < 600.0:
            return age
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T0


def pin_to_one_cpu() -> None:
    """Run on one CPU.  The program's transforms pass ``workers=-1``; on two
    vCPUs their threads hand every small transform across CPUs, and the
    lowmach_2d sweep then read 41.7-61.5 s over five runs, against
    28.3-33.0 s over six runs pinned (README.md).  ``PERFBENCH_NO_PIN=1``
    leaves the affinity alone, for the unpinned figures in README.md."""
    if os.environ.get("PERFBENCH_NO_PIN") == "1":
        return
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def import_program():
    """Import driftflow from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import driftflow
    except ImportError as exc:
        raise SystemExit(f"cannot import driftflow from {src}: {exc}")
    origin = Path(driftflow.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"driftflow was imported from {origin}, not from {src}")
    return driftflow


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="whole sweeps are run while the next one fits in this time; at least one")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs whole sweeps of one workload and collects the check failures."""

    def __init__(self, wl, ctx, probe):
        self.wl, self.ctx, self.probe = wl, ctx, probe
        self.times, self.results, self.failures = [], [], []
        self.ok_times = []    # times of the sweeps that returned a result
        self.failed = 0
        self.kept = None      # trajectory record holding the sampled fields
        self.last_records = []

    def sweep(self):
        from driftflow.errors import DriftflowError
        from checks import check_trajectory

        t0 = time.perf_counter()
        res = error = None
        try:
            res = self.wl.run(self.ctx)
        except DriftflowError as exc:
            error = f"{type(exc).__name__}: {exc}"
        self.times.append(time.perf_counter() - t0)
        recs = self.last_records = self.probe.take_trajectories()
        if res is None:
            # every workload's sweeps run to their end on the same inputs, so
            # a sweep that stops early is a wrong result, not a faster one
            self.failed += 1
            self.failures.append(f"sweep {len(self.times)} raised {error}")
            return
        self.ok_times.append(self.times[-1])
        self.results.append(res)
        n = len(self.results)
        if len(recs) != self.wl.trajectories:
            self.failures.append(f"sweep {n}: {len(recs)} integrate calls, "
                                 f"expected {self.wl.trajectories}")
        self.failures += self.wl.check(res)
        for i, rec in enumerate(recs):
            self.failures += check_trajectory(rec, f"sweep {n} trajectory {i}: ")
            if rec.final_fields:
                self.kept = rec
        print(f"sweep {n}: {self.times[-1]:.3f} s; "
              + "; ".join(f"{k} slope {f.slope:.4f}" for k, f in res.fits.items()), flush=True)


def final_checks(wl, runner, probe) -> list[str]:
    """Block norms of the sampled fields and propagator entries."""
    import checks
    from driftflow.besov import block_l2_spectrum, block_lp_spectrum, family_for
    from driftflow.spectral import to_physical

    out = []
    if runner.kept is None:
        return out + ["no trajectory kept its fields for the block-norm checks"]
    grid = runner.ctx["grid"]
    js = family_for(grid).j_values

    def want(field, p):
        return checks.block_norms_numpy(to_physical(field), grid.dim, grid.length, js, p)

    fields = runner.kept.final_fields
    recorded = runner.kept.final_blocks
    a = fields["a"]
    # one sampled field: its p=4 norms by numpy.fft, its p=2 norms by quadrature
    p4 = recorded["a_p"][1] if "a_p" in recorded else block_lp_spectrum(a, 4.0)
    p2 = recorded["a"][1] if "a" in recorded else block_l2_spectrum(a)
    out += checks.check_block_norms("a, p=4", p4, want(a, 4.0))
    out += checks.check_block_norms("a, p=2", p2, want(a, 2.0))
    for name, build in wl.block_fields.items():
        p, row = recorded[name]
        out += checks.check_block_norms(f"observer {name}, p={p:g}", row, want(build(fields), p))
    if not probe.tables:
        out.append("no propagator table was built")
    for rec in probe.tables:
        out += checks.check_table(rec)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    import_program()
    import numpy as np

    from probe import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    probe = Probe(keep_fields_of=args.seed % wl.trajectories, keep_names=wl.keep_names,
                  modes_rng=np.random.default_rng(args.seed)).install()
    ctx = wl.setup(args.seed)
    setup_s = seconds_since_process_start()
    runner = Runner(wl, ctx, probe)

    if args.trace:
        # a warm-up sweep, one untraced and one traced
        runner.sweep()
        runner.sweep()
        probe.enable_tracing()
        runner.sweep()
    else:
        begin = time.perf_counter()
        while True:
            runner.sweep()
            elapsed = time.perf_counter() - begin
            if elapsed + max(runner.times) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe.remove()

    failures = list(runner.failures)
    if runner.results:
        failures += final_checks(wl, runner, probe)
    else:
        failures.append("no sweep produced a checked result")

    if args.trace:
        layers = probe.layer_metrics(runner.last_records)
        if "besov.block_lp" not in wl.layers:
            # p != 2 block norms run only in lowmach_2d, which BENCHMARK.json
            # does not list (README.md)
            del layers["besov.block_lp.calls"], layers["besov.block_lp.s"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        metrics["trace.wall_s"] = {"value": runner.times[-1], "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": runner.times[-2], "unit": "s"}
        # one sweep's run-to-run noise is far above the tracing overhead, so
        # the overhead is the number of spans times the measured cost of one
        metrics["trace.overhead_s"] = {"value": probe.overhead_estimate(), "unit": "s"}
        silent = [k for k in wl.layers if probe.calls(k) == 0]
        failures += [f"traced layer {k} recorded no calls" for k in silent]
        reported = sum(r.steps for r in runner.last_records)
        if probe.calls("integrate.step") != reported:
            failures.append(f"wrapped Stepper.step counted {probe.calls('integrate.step')} steps, "
                            f"trajectories report {reported}")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(runner.ok_times or runner.times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not failures, "attempted": len(runner.times), "failed": runner.failed,
              "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sweep_s=runner.times, setup_s=setup_s,
                  peak_rss_mb=peak_rss_mb, failures=failures,
                  fits=[{k: f.slope for k, f in r.fits.items()} for r in runner.results])
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
