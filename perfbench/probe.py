"""
Wrappers around driftflow's public functions, installed from outside the
package.

Every wrapper replaces *each* binding of the wrapped function object: the
defining module, every driftflow module that imported it by name (for
example ``studies`` binds ``integrate`` and ``chemin_lerner_norm``), the
package namespace, and, for the transforms, ``scipy.fft`` and ``numpy.fft``.
``Probe.remove()`` puts the originals back.

Two jobs share the mechanism:

* recording (always on, a few calls per sweep): each ``integrate`` call is
  summarised into a ``TrajectoryRecord`` and each propagator table build
  into a ``TableRecord``, for the correctness checks;
* tracing (``enable_tracing()``): spans at every layer boundary, kept as
  per-layer aggregates (calls, self seconds) in memory.  A span's self time
  is its duration minus the durations of the spans it directly encloses, so
  the ``.s`` metrics partition the traced time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# every transform entry point of scipy.fft and numpy.fft; whichever of them the
# program calls is counted, so a change of transform cannot escape the count
TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
    "dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn",
)


@dataclass
class TrajectoryRecord:
    """What the checks need from one ``integrate`` call; the trajectory itself
    is not kept, so recording does not raise the peak memory of a sweep."""

    system: str
    steps: int
    samples: int
    state_bytes: int
    retained_bytes: int
    scalar_zero_modes: dict            # name -> (initial, final) zero mode
    finite: dict                       # "initial.v" -> bool, ...
    final_fields: dict = field(default_factory=dict)   # some fields of one trajectory
    final_blocks: dict = field(default_factory=dict)   # observer -> (p, last column)


@dataclass
class TableRecord:
    """A few entries of one propagator table, with the data to rebuild them."""

    system: str
    params: object
    dt: float
    xi: np.ndarray
    entries: dict                      # attribute name -> values at the sampled modes


def _module(name: str):
    # importlib, because the package attribute ``driftflow.integrate`` is the
    # function of that name, not the module
    return importlib.import_module(f"driftflow.{name}")


def _state_bytes(state) -> int:
    return sum(f.coeffs.nbytes for f in state.fields().values())


class Probe:
    def __init__(self, keep_fields_of: int = 0, keep_names=("a",), modes_rng=None):
        self.keep_fields_of = keep_fields_of
        self.keep_names = keep_names
        self.modes_rng = modes_rng or np.random.default_rng(0)
        self.trajectories: list[TrajectoryRecord] = []
        self.tables: list[TableRecord] = []
        self.stats: dict[str, list] = {}   # layer key -> [calls, self seconds]
        self.fft_points = 0
        self.fft_by_direction = {"forward": [0, 0], "inverse": [0, 0]}  # [calls, points]
        self.fft_in_rhs = 0
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- binding replacement ------------------------------------------------

    def _namespaces(self):
        import numpy.fft
        import scipy.fft

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "driftflow" or n.startswith("driftflow."))]
        return mods + [scipy.fft, numpy.fft]

    def _replace(self, original, wrapper) -> None:
        hits = 0
        for ns in self._namespaces():
            for name, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, name, wrapper)
                    self._undo.append((ns, name, original))
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no binding of {original!r} found")

    def _replace_method(self, cls, name, wrapper_factory):
        original = vars(cls)[name]
        setattr(cls, name, wrapper_factory(original))
        self._undo.append((cls, name, original))

    def remove(self):
        for ns, name, original in reversed(self._undo):
            setattr(ns, name, original)
        self._undo.clear()

    # -- spans ----------------------------------------------------------------

    def _span(self, key, fn, after=None):
        stack = self._stack
        stats = self.stats.setdefault(key, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _plain(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(args, kwargs, out)
            return out

        return wrapper

    # -- recorders --------------------------------------------------------------

    def _record_trajectory(self, args, kwargs, traj):
        state0 = args[0] if args else kwargs["state0"]
        final = traj.meta["final_state"].fields()
        zero, finite = {}, {}
        for name, f0 in state0.fields().items():
            f1 = final[name]
            finite[f"initial.{name}"] = bool(np.all(np.isfinite(f0.coeffs)))
            finite[f"final.{name}"] = bool(np.all(np.isfinite(f1.coeffs)))
            if not f0.is_vector:
                zero[name] = (complex(f0.zero_mode()), complex(f1.zero_mode()))
        retained = traj.times.nbytes
        retained += sum(_state_bytes(s) for _, s in traj.checkpoints)
        retained += sum(a.nbytes for rows in traj.fields.values() for a in rows)
        retained += sum(b.values.nbytes for b in traj.blocks.values())
        rec = TrajectoryRecord(
            system=traj.meta["system"], steps=int(traj.meta["steps"]),
            samples=len(traj.times), state_bytes=_state_bytes(state0),
            retained_bytes=retained, scalar_zero_modes=zero, finite=finite,
        )
        if len(self.trajectories) == self.keep_fields_of:
            rec.final_fields = {k: final[k].copy() for k in self.keep_names}
            # the observer's p, since BlockTimeSeries does not carry it
            obs = args[5] if len(args) > 5 else kwargs.get("observers", ())
            p = {o.name: o.p for o in obs if o.kind == "blocks"}
            rec.final_blocks = {k: (p[k], b.values[:, -1].copy()) for k, b in traj.blocks.items()}
        self.trajectories.append(rec)

    def _record_table(self, args, kwargs, tab):
        grid, params, dt = args[0], args[1], args[2]
        xi = grid.kmag.ravel()
        inside = np.nonzero((grid.dealias_keep.ravel()) & (xi > 0))[0]
        idx = np.concatenate([self.modes_rng.choice(inside, 3, replace=False),
                              [inside[np.argmax(xi[inside])]]])
        entries = {}
        for f in dataclasses.fields(tab):
            val = getattr(tab, f.name)
            if isinstance(val, np.ndarray):
                entries[f.name] = val.ravel()[idx].copy()
        self.tables.append(TableRecord(tab.system, params, dt, xi[idx], entries))

    def _count_points(self, name):
        tally = self.fft_by_direction["inverse" if name.startswith("i") else "forward"]

        def after(args, kwargs, out):
            x = args[0] if args else kwargs["x"]
            points = max(np.size(x), np.size(out))
            self.fft_points += points
            tally[0] += 1
            tally[1] += points

        return after

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap the two recorders (integrate, propagator build); no timing."""
        integ = _module("integrate")

        self._replace(integ.integrate, self._plain(integ.integrate, self._record_trajectory))
        self._replace(integ.precompute_mode_propagators,
                      self._plain(integ.precompute_mode_propagators, self._record_table))
        return self

    def take_trajectories(self) -> list:
        """The records since the last call (one sweep's worth), then forget them."""
        out, self.trajectories = self.trajectories, []
        return out

    def enable_tracing(self):
        """Put a span around every layer's public functions, recorders included."""
        import numpy.fft
        import scipy.fft

        besov, initial_data, integ, linear, studies, systems = (_module(n) for n in (
            "besov", "initial_data", "integrate", "linear", "studies", "systems"))

        fft_stats = self.stats.setdefault("spectral.fft", [0, 0.0])
        for mod in (scipy.fft, numpy.fft):
            for name in TRANSFORMS:
                fn = vars(mod).get(name)
                if fn is not None:
                    self._replace(fn, self._span("spectral.fft", fn, self._count_points(name)))

        self._replace(integ.integrate, self._span("integrate.loop", integ.integrate))
        self._replace(integ.precompute_mode_propagators,
                      self._span("integrate.propagator_build", integ.precompute_mode_propagators))

        def rhs_span(fn):
            inner = self._span("systems.rhs", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = fft_stats[0]
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.fft_in_rhs += fft_stats[0] - before

            return wrapper

        for name in ("rhs_euler_ns", "rhs_euler_ns_scaled", "rhs_df", "rhs_df_scaled", "rhs_tns"):
            self._replace(getattr(systems, name), rhs_span(getattr(systems, name)))
        for cls in (systems.StateEulerNS, systems.StateDF, systems.StateTNS):
            self._replace_method(cls, "validate", lambda fn: self._span("systems.validate", fn))

        self._replace_method(integ.Stepper, "step", lambda fn: self._span("integrate.step", fn))
        for name in ("apply_propagator", "apply_resolvent"):
            fn = getattr(integ, name)
            self._replace(fn, self._span("integrate.propagator_apply", fn))
        for cls in (integ.BlockObserver, integ.FieldObserver,
                    integ.CheckpointObserver, integ.ScalarObserver):
            self._replace_method(cls, "sample", lambda fn: self._span("integrate.observe", fn))

        for name in ("green_compressible", "green_incompressible"):
            fn = getattr(linear, name)
            self._replace(fn, self._span("linear.green", fn))
        self._replace(linear.expm, self._span("linear.expm_fallback", linear.expm))
        for name in ("continuum_linear_norms", "continuum_block_l2"):
            fn = getattr(linear, name)
            self._replace(fn, self._span("linear.continuum", fn))

        self._replace(besov.block_lp_norm, self._span("besov.block_lp", besov.block_lp_norm))
        self._replace(besov.block_l2_spectrum,
                      self._span("besov.block_l2", besov.block_l2_spectrum))

        for name in ("relaxation_study", "df_limit_study", "decay_study",
                     "incompressible_study", "linear_decay_tier"):
            fn = getattr(studies, name)
            self._replace(fn, self._span("studies.reduce", fn))

        for name, fn in list(vars(initial_data).items()):
            if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == initial_data.__name__):
                self._replace(fn, self._span("initial_data", fn))

    # -- tracing overhead -----------------------------------------------------------

    @staticmethod
    def span_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
        """Seconds one span adds to a call, for a plain span and for a
        transform span with its point count: each the median over ``repeats``
        timings of ``calls`` wrapped calls of a trivial function, less the
        same calls unwrapped.  A throwaway probe holds the spans."""
        scratch = Probe()
        x = np.zeros(8)

        def bare(a):
            return a

        def per_call(fn):
            t0 = perf_counter()
            for _ in range(calls):
                fn(x)
            return (perf_counter() - t0) / calls

        span = scratch._span("calibrate", bare)
        fft = scratch._span("calibrate", bare, scratch._count_points("fft"))
        out = []
        for fn in (span, fft):
            out.append(float(np.median([per_call(fn) - per_call(bare) for _ in range(repeats)])))
        return out[0], out[1]

    def overhead_estimate(self) -> float:
        """The tracing overhead of the spans recorded so far: each span's
        count times the measured cost of one span (``span_costs``).  The
        rhs spans carry one more wrapper, counted as one more span."""
        span, fft = self.span_costs()
        fft_calls = self.calls("spectral.fft")
        other = sum(c for k, (c, _) in self.stats.items() if k != "spectral.fft")
        return fft_calls * fft + (other + self.calls("systems.rhs")) * span

    # -- per-layer metrics ---------------------------------------------------------

    def calls(self, key) -> int:
        return self.stats.get(key, [0, 0.0])[0]

    def seconds(self, key) -> float:
        return self.stats.get(key, [0, 0.0])[1]

    def layer_metrics(self, records) -> dict:
        """The per-layer metrics of the traced calls, name -> (value, unit);
        ``records`` are the trajectory records of the traced sweep."""
        rhs_calls = self.calls("systems.rhs")
        return {
            "spectral.fft.calls": (self.calls("spectral.fft"), "count"),
            "spectral.fft.s": (self.seconds("spectral.fft"), "s"),
            "spectral.fft.points": (self.fft_points, "count"),
            "spectral.state_bytes": (max((t.state_bytes for t in records), default=0),
                                     "bytes"),
            "systems.rhs.calls": (rhs_calls, "count"),
            "systems.rhs.s": (self.seconds("systems.rhs"), "s"),
            "systems.rhs.fft_per_call": (self.fft_in_rhs / rhs_calls if rhs_calls else 0.0,
                                         "fft/call"),
            "systems.validate.calls": (self.calls("systems.validate"), "count"),
            "systems.validate.s": (self.seconds("systems.validate"), "s"),
            "integrate.steps": (self.calls("integrate.step"), "count"),
            "integrate.step.s": (self.seconds("integrate.step"), "s"),
            "integrate.loop.s": (self.seconds("integrate.loop"), "s"),
            "integrate.propagator_build.calls": (self.calls("integrate.propagator_build"), "count"),
            "integrate.propagator_build.s": (self.seconds("integrate.propagator_build"), "s"),
            "integrate.propagator_apply.s": (self.seconds("integrate.propagator_apply"), "s"),
            "integrate.samples": (sum(t.samples for t in records), "count"),
            "integrate.observe.s": (self.seconds("integrate.observe"), "s"),
            "integrate.retained_bytes": (sum(t.retained_bytes for t in records), "bytes"),
            "linear.green.s": (self.seconds("linear.green"), "s"),
            "linear.expm_fallback.calls": (self.calls("linear.expm_fallback"), "count"),
            "linear.continuum.s": (self.seconds("linear.continuum"), "s"),
            "besov.block_lp.calls": (self.calls("besov.block_lp"), "count"),
            "besov.block_lp.s": (self.seconds("besov.block_lp"), "s"),
            "besov.block_l2.s": (self.seconds("besov.block_l2"), "s"),
            "studies.reduce.s": (self.seconds("studies.reduce"), "s"),
            "initial_data.s": (self.seconds("initial_data"), "s"),
        }
