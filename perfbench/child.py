"""One `cml-lab run` in a fresh interpreter, started by run.py.

    python3 perfbench/child.py MODE CONFIG RECORD LAUNCH_NS

It imports cml_lab from the checkout's src/, installs the wrappers MODE
asks for, and calls cli.main the way the `cml-lab` entry point does.  At
exit it writes RECORD, a JSON file of CLOCK_MONOTONIC stamps (LAUNCH_NS is
the parent's stamp taken just before the launch) and, when tracing, the
spans and counts.  Modes:

- run:   stamps the start of the first experiment and the end of
         emit_report, nothing else.
- setup: stops the process at the start of the first experiment.
- trace: spans around the names cml_lab.cli imports from lattice,
         transfer, spectral and harness, around each experiment step,
         parse_config and emit_report; counts of points through the node
         maps' forward and inverse branches.
- alloc: tracemalloc peaks of the spans that allocate the most memory.
         Their times are not used: tracemalloc slows Python loops 3-6x.
"""

import dataclasses
import json
import sys
import time
import tracemalloc
from pathlib import Path


class SetupDone(BaseException):
    """Raised at the first experiment in setup mode; not an Exception, so
    run_experiment's per-experiment handler lets it through."""


class Tracer:
    """Spans kept in memory.  A span's self time is its duration minus the
    spans and inverse-branch time inside it."""

    def __init__(self):
        self.stack = []
        self.spans = {}
        self.counts = {"lattice.inverse_points": 0, "lattice.forward_points": 0}
        self.inverse_s = 0.0

    def span(self, name_of, fn):
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += duration
                agg = self.spans.setdefault(name_of(args, kwargs), [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
        return wrapper

    def inverse(self, fn):
        def wrapper(y):
            start = time.perf_counter()
            try:
                return fn(y)
            finally:
                duration = time.perf_counter() - start
                self.inverse_s += duration
                if self.stack:
                    self.stack[-1][1] += duration
                self.counts["lattice.inverse_points"] += _size(y)
        return wrapper

    def forward(self, fn):
        def wrapper(x):
            self.counts["lattice.forward_points"] += _size(x)
            return fn(x)
        return wrapper

    def counting_map(self, constructor):
        def wrapper(*args, **kwargs):
            nm = constructor(*args, **kwargs)
            return dataclasses.replace(
                nm,
                forward=self.forward(nm.forward),
                inverse_branches=tuple(self.inverse(b) for b in nm.inverse_branches),
            )
        return wrapper

    def record(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": total, "self_s": own}
                for name, (c, total, own) in self.spans.items()
            },
            "counts": self.counts,
            "inverse_s": self.inverse_s,
        }


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _fixed(name):
    return lambda args, kwargs: name


def _ulam_kind(args, kwargs):
    return "transfer.ulam_matrix." + (args[0] if args else kwargs["kind"])


def install_trace(cli, tracer: Tracer, rec: dict) -> None:
    for module, names in (
        ("transfer", ("leading_eigenpair", "check_conformality", "check_lasota_yorke")),
        ("spectral", ("spectral_gap", "stationary_distribution", "variance_green_kubo",
                      "operator_correlation", "check_twisted_bound")),
        ("lattice", ("estimate_coupling_constant",)),
        ("cli", ("parse_config", "emit_report")),
    ):
        for name in names:
            setattr(cli, name, tracer.span(_fixed(f"{module}.{name}"), getattr(cli, name)))
    ulam = cli.ulam_matrix

    def ulam_with_counts(*args, **kwargs):
        op = ulam(*args, **kwargs)
        if op.kind == "coupled":
            rows = op.matrix.indptr
            rec["coupled_nnz"] = int(op.matrix.nnz)
            rec["coupled_reachable_cells"] = int((rows[1:] > rows[:-1]).sum())
        return op

    cli.ulam_matrix = tracer.span(_ulam_kind, ulam_with_counts)
    simulate = cli.simulate_ensemble

    def simulate_with_counts(cfg):
        rec["replica_steps"] = rec.get("replica_steps", 0) + cfg.n_replicas * cfg.n_steps
        return simulate(cfg)

    cli.simulate_ensemble = tracer.span(_fixed("harness.simulate_ensemble"), simulate_with_counts)
    cli.doubling_map = tracer.counting_map(cli.doubling_map)
    cli.perturbed_doubling_map = tracer.counting_map(cli.perturbed_doubling_map)
    for step in list(cli._EXPERIMENT_STEPS):
        cli._EXPERIMENT_STEPS[step] = tracer.span(
            _fixed(f"cli.experiment.{step}"), cli._EXPERIMENT_STEPS[step]
        )


def install_alloc(cli, peaks: dict) -> None:
    def measured(name_of, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                name = name_of(args, kwargs)
                peaks[name] = max(peaks.get(name, 0), peak)
        return wrapper

    cli.ulam_matrix = measured(_ulam_kind, cli.ulam_matrix)
    cli.check_conformality = measured(_fixed("transfer.check_conformality"), cli.check_conformality)
    cli.simulate_ensemble = measured(_fixed("harness.simulate_ensemble"), cli.simulate_ensemble)


def install_stamps(cli, rec: dict, stop_at_first: bool) -> None:
    """Stamp the first experiment's start and the end of emit_report."""
    def first(fn):
        def wrapper(*args, **kwargs):
            rec.setdefault("first_step_ns", time.monotonic_ns())
            if stop_at_first:
                raise SetupDone
            return fn(*args, **kwargs)
        return wrapper

    for step in list(cli._EXPERIMENT_STEPS):
        cli._EXPERIMENT_STEPS[step] = first(cli._EXPERIMENT_STEPS[step])
    emit = cli.emit_report

    def emit_and_stamp(*args, **kwargs):
        paths = emit(*args, **kwargs)
        rec["emit_end_ns"] = time.monotonic_ns()
        rec["report_bytes"] = sum(Path(p).stat().st_size for p in paths)
        return paths

    cli.emit_report = emit_and_stamp


def main() -> int:
    mode, config, record_path, launch_ns = sys.argv[1:5]
    rec = {"launch_ns": int(launch_ns)}
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from cml_lab import cli

    tracer = Tracer()
    peaks = {}
    # stamps go on last, so they sit outside every other wrapper
    if mode == "trace":
        install_trace(cli, tracer, rec)
    elif mode == "alloc":
        install_alloc(cli, peaks)
    install_stamps(cli, rec, stop_at_first=mode == "setup")
    sys.argv = ["cml-lab", "run", config]
    try:
        code = cli.main()
    except SetupDone:
        code = 0
    rec["exit"] = code
    if mode == "trace":
        rec.update(tracer.record())
    if mode == "alloc":
        rec["alloc_peak_bytes"] = peaks
    Path(record_path).write_text(json.dumps(rec))
    return code


if __name__ == "__main__":
    sys.exit(main())
