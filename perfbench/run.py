#!/usr/bin/env python3
"""Benchmark of `cml-lab run`, end to end and per module.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every `cml-lab run` is a fresh
interpreter (perfbench/child.py) started by this process, one at a time,
with BLAS/OpenMP fixed to one thread.  The workload's config comes from
perfbench/workloads/<name>.cfg with `seed` set to --seed; reports go to
.perfbench-out/<name>/.  The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, end-to-end ones with
--trace 0 and per-layer ones with --trace 1.  See perfbench/README.md.
"""

import argparse
import configparser
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("desk", "fine", "flat")
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 2
DEADLINE_S = 175

# Gates whose verdict moves with the seed, so that the failed share would
# differ between runs, and desk's second failing gate: each workload keeps
# one always-failing gate, conformality.ratio_mean (target 1/b, not 1/b^d).
# Their verdicts are printed, not counted; see README.md.
NOT_COUNTED = {
    "desk": ("conformality.ratio_spread", "clt.ks_distance", "clt.empirical_sigma2"),
    "fine": (),
    "flat": ("conformality.ratio_spread", "clt.ks_distance", "clt.empirical_sigma2"),
}

# spectral_gap starts ARPACK from the constant vector, which is the exact
# leading eigenvector of flat's 'L' operator; ARPACK then restarts from a
# vector of its own that differs per process, so flat's roundoff-level
# |lambda_2| and gap differ between identical runs (see CHANGES.md).  They
# are left out of flat's byte comparison and printed per round instead.
UNSTABLE = {"desk": (), "fine": (), "flat": ("sigma_hat", "gap")}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
EXPERIMENTS = ("eigen", "spectral", "correlation", "ly", "conformality", "twisted", "clt")
SELF_TIMES = (
    "lattice.estimate_coupling_constant",
    "transfer.ulam_matrix.P",
    "transfer.ulam_matrix.coupled",
    "transfer.ulam_matrix.L",
    "transfer.leading_eigenpair",
    "transfer.check_conformality",
    "transfer.check_lasota_yorke",
    "spectral.spectral_gap",
    "spectral.stationary_distribution",
    "spectral.variance_green_kubo",
    "spectral.operator_correlation",
    "spectral.check_twisted_bound",
    "harness.simulate_ensemble",
)
ALLOC_SPANS = (
    "transfer.ulam_matrix.P",
    "transfer.ulam_matrix.coupled",
    "transfer.check_conformality",
    "harness.simulate_ensemble",
)
PER_LAYER = (
    (("cli.parse_config_s", "s"),)
    + tuple((f"cli.experiment.{e}_s", "s") for e in EXPERIMENTS)
    + (("cli.emit_report_s", "s"), ("cli.report_bytes", "bytes"),
       ("lattice.inverse_points", "count"), ("lattice.inverse_s", "s"),
       ("lattice.forward_points", "count"))
    + tuple((f"{name}_s", "s") for name in SELF_TIMES)
    + tuple((f"{name}_alloc_mb", "MB") for name in ALLOC_SPANS)
    + (("transfer.coupled_nnz", "count"), ("transfer.coupled_reachable_cells", "count"),
       ("harness.replica_steps_per_s", "steps/s"), ("trace.overhead_s", "s"))
)


class BenchError(RuntimeError):
    pass


def _stop(signum, frame):
    raise BenchError(f"stopped by {signal.Signals(signum).name} (deadline {DEADLINE_S} s)")


def workload_config(name: str, seed: int) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cfg.read_string((HERE / "workloads" / f"{name}.cfg").read_text())
    cfg["run"]["seed"] = str(seed)
    return cfg


def spawn(mode: str, config: Path, tag: str, wdir: Path) -> tuple[dict, float, Path]:
    """Run child.py once; returns its record, its peak RSS in MB (from its
    own wait4 rusage) and its report directory."""
    out_dir, record, log = wdir / tag, wdir / f"{tag}.json", wdir / f"{tag}.log"
    env = {k: v for k, v in os.environ.items() if k != "CML_LAB_THREADS"}
    env.update(THREADS, CML_LAB_OUTPUT_DIR=str(out_dir))
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    launch = time.monotonic_ns()
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, str(HERE / "child.py"), mode, str(config), str(record), str(launch)],
        env,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644),
                      (os.POSIX_SPAWN_DUP2, 1, 2)],
    )
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    # cml-lab exits 1 when an experiment raised; its report still counts
    if code not in (0, 1) or not record.is_file():
        tail = log.read_text(errors="replace")[-2000:] if log.is_file() else ""
        raise BenchError(f"{mode} child exited with {code}:\n{tail}")
    return json.loads(record.read_text()), usage.ru_maxrss / 1024.0, out_dir


class Run:
    """The rounds of one benchmark run: their operations, checks and digests."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.cfg = workload_config(workload, seed)
        self.wdir = OUT / workload
        shutil.rmtree(self.wdir, ignore_errors=True)
        self.wdir.mkdir(parents=True)
        self.config = self.wdir / f"{workload}.cfg"
        with self.config.open("w") as fh:
            self.cfg.write(fh)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()
        self.gate_lines: list[str] = []
        self.unstable_values: list[str] = []
        self.reference = None
        self.n = 0

    def setup_s(self) -> float:
        self.n += 1
        rec, _, _ = spawn("setup", self.config, f"s{self.n}", self.wdir)
        return (rec["first_step_ns"] - rec["launch_ns"]) / 1e9

    def round(self, mode: str) -> tuple[dict, float]:
        """One full `cml-lab run`; returns its record and peak RSS."""
        self.n += 1
        rec, rss, out_dir = spawn(mode, self.config, f"r{self.n}", self.wdir)
        rec["setup_s"] = (rec["first_step_ns"] - rec["launch_ns"]) / 1e9
        rec["run_s"] = (rec["emit_end_ns"] - rec["first_step_ns"]) / 1e9
        self.count_gates(json.loads((out_dir / "report.json").read_text()))
        self.check(out_dir)
        return rec, rss

    def count_gates(self, report: dict) -> None:
        left_out = NOT_COUNTED[self.workload]
        counted, failed, skipped = [], [], []
        for exp, entries in sorted(report["results"].items()):
            for key, entry in sorted(entries.items()):
                if "passed" not in entry:
                    continue
                name = f"{exp}.{key}"
                verdict = "PASS" if entry["passed"] else "FAIL"
                if name in left_out:
                    skipped.append(f"{name} {verdict}")
                    continue
                counted.append(name)
                if not entry["passed"]:
                    failed.append(name)
        requested = [s.strip() for s in self.cfg["run"]["experiments"].split(",")]
        for exp in requested:
            if exp in report["errors"]:
                counted.append(f"{exp}.raised")
                failed.append(f"{exp}.raised")
        self.attempted += len(counted)
        self.failed += len(failed)
        line = (f"gates: {len(counted)} attempted, {len(failed)} failed "
                f"[{', '.join(failed)}]; not counted [{', '.join(skipped)}]")
        if line not in self.gate_lines:
            self.gate_lines.append(line)

    def check(self, out_dir: Path) -> None:
        op = self.cfg["operator"]
        n_bins, k, quad = int(op["n_bins"]), int(op["k"]), int(op["quad"])
        try:
            outs = checks.load_outputs(out_dir)
            if self.workload == "flat":
                fails = checks.check_flat(outs, n_bins, k)
            elif self.workload == "fine":
                fails = checks.check_fine(outs)
            else:
                a = float(self.cfg["map"]["a"])
                if self.reference is None:
                    self.reference = checks.desk_reference(a, n_bins, 2 * k + 1)
                fails = checks.check_desk(outs, n_bins, k, quad, a, self.reference)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            fails = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        self.failures += [f"{out_dir.name}: {f}" for f in fails]
        unstable = UNSTABLE[self.workload]
        self.digests.add(checks.fingerprint_digest(out_dir, unstable))
        if unstable:
            spectral = json.loads((out_dir / "report.json").read_text())["results"]["spectral"]
            self.unstable_values.append(
                " ".join(f"{key}={spectral[key]['value']!r}" for key in unstable))

    def check_identical(self) -> None:
        """Fingerprinted files agree across this run's rounds and with every
        earlier run of the same workload, seed and source in this checkout."""
        if len(self.digests) != 1:
            self.failures.append(f"report files differ between rounds ({len(self.digests)} versions)")
            return
        src = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            src.update(path.read_bytes())
        key = f"{self.workload}-{self.seed}-{src.hexdigest()[:16]}"
        store = OUT / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        digest = next(iter(self.digests))
        if known.setdefault(key, digest) != digest:
            self.failures.append("report files differ from an earlier run with this seed")
        store.write_text(json.dumps(known, indent=1, sort_keys=True))

    def result(self, metrics: dict, units: tuple) -> dict:
        self.check_identical()
        for line in self.gate_lines:
            print(f"{self.workload}: {line}")
        for i, values in enumerate(self.unstable_values, 1):
            print(f"{self.workload}: round {i} not byte-compared: {values}")
        for failure in self.failures:
            print(f"{self.workload}: CHECK FAILED {failure}")
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        }


def timed(run: Run, seconds: int) -> dict:
    """Rounds of one setup-only launch and one full run until `seconds`
    have passed (at least MIN_ROUNDS); medians of all."""
    start = time.monotonic()
    run.setup_s()  # fills the bytecode cache; not a sample
    setups, rounds = [], []
    while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
        setups.append(run.setup_s())
        rounds.append(run.round("run"))
    setups += [rec["setup_s"] for rec, _ in rounds]
    print(f"{run.workload}: {len(rounds)} rounds, run_s "
          + " ".join(f"{rec['run_s']:.3f}" for rec, _ in rounds))
    return run.result({
        "run_s": statistics.median(rec["run_s"] for rec, _ in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss for _, rss in rounds),
    }, END_TO_END)


def traced(run: Run) -> dict:
    """An untraced round, a traced round for times and counts, and a
    tracemalloc round for the allocation peaks."""
    base, _ = run.round("run")
    rec, _ = run.round("trace")
    alloc, _ = run.round("alloc")
    spans = rec["spans"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    metrics = {
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.emit_report_s": total("cli.emit_report"),
        "cli.report_bytes": rec["report_bytes"],
        "lattice.inverse_points": rec["counts"]["lattice.inverse_points"],
        "lattice.inverse_s": rec["inverse_s"],
        "lattice.forward_points": rec["counts"]["lattice.forward_points"],
        "transfer.coupled_nnz": rec.get("coupled_nnz", 0),
        "transfer.coupled_reachable_cells": rec.get("coupled_reachable_cells", 0),
        "trace.overhead_s": rec["run_s"] - base["run_s"],
    }
    for exp in EXPERIMENTS:
        metrics[f"cli.experiment.{exp}_s"] = total(f"cli.experiment.{exp}")
    for name in SELF_TIMES:
        metrics[f"{name}_s"] = spans.get(name, {}).get("self_s", 0.0)
    for name in ALLOC_SPANS:
        metrics[f"{name}_alloc_mb"] = alloc["alloc_peak_bytes"].get(name, 0) / 2 ** 20
    sim = total("harness.simulate_ensemble")
    metrics["harness.replica_steps_per_s"] = rec.get("replica_steps", 0) / sim if sim else 0.0
    covered = sum(total(f"cli.experiment.{e}") for e in EXPERIMENTS) + total("cli.emit_report")
    print(f"{run.workload}: run_s untraced {base['run_s']:.3f}, traced {rec['run_s']:.3f}; "
          f"experiment and emit spans cover {covered:.3f} s")
    return run.result(metrics, PER_LAYER)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cml_lab" / "cli.py").is_file():
        print(f"no cml_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _stop)
    signal.alarm(DEADLINE_S)
    try:
        run = Run(args.workload, args.seed)
        result = traced(run) if args.trace else timed(run, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
