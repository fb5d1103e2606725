import dataclasses
import filecmp
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cml_lab as cl
from cml_lab import cli, spectral, transfer
from cml_lab.cli import main, validate_config
from cml_lab.harness import CLT_MIN_REPLICAS
from conftest import assert_no_children

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


MINIMAL = """
[map]
kind = perturbed_doubling
a = 0.05

[coupling]
kind = diffusive
epsilon = 0.05
"""

EIGEN_ONLY = """
[map]
kind = doubling

[coupling]
epsilon = 0.0

[potential]
kind = zero

[operator]
k = 0
n_bins = 64

[run]
experiments = eigen
output_dir = {out}
"""

FLAT_CONFORMALITY = """
[map]
kind = doubling

[coupling]
epsilon = 0.0

[potential]
kind = zero

[operator]
k = 1
n_bins = 16

[run]
experiments = conformality
seed = 7
output_dir = {out}
"""

# Names perfbench/child.py wraps through getattr(cli, name).
BENCHMARK_HOOKS = (
    "leading_eigenpair", "check_conformality", "check_lasota_yorke",
    "spectral_gap", "stationary_distribution", "variance_green_kubo",
    "operator_correlation", "check_twisted_bound", "estimate_coupling_constant",
    "parse_config", "emit_report", "ulam_matrix", "simulate_ensemble",
    "doubling_map", "perturbed_doubling_map", "main",
)


class TestParsing:
    def test_minimal_config_parses_with_defaults(self, tmp_path):
        cfg = cl.parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.map_kind == "perturbed_doubling"
        assert cfg.epsilon == 0.05
        assert cfg.n_bins == 16  # untouched default

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = cl.parse_config(
            write_cfg(
                tmp_path,
                "# header\n\n[map]\nkind = doubling  # inline\n"
                "\n[coupling]\n# clt pulls the doubling map back, uncoupled\nepsilon = 0.0\n",
            )
        )
        assert cfg.map_kind == "doubling" and cfg.epsilon == 0.0

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        path = write_cfg(tmp_path, "[map]\nflavor = strange\n")
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        assert "line 2" in str(err.value)
        assert "flavor" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "[engine]\nkind = doubling\n")
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        assert "[engine]" in str(err.value)

    def test_violations_are_aggregated(self, tmp_path):
        path = write_cfg(
            tmp_path,
            "[coupling]\nepsilon = 0.6\n\n[metric]\ntheta = 1.0\nbeta = 7\n",
        )
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        msg = str(err.value)
        assert "epsilon" in msg and "theta" in msg and "beta" in msg

    def test_type_errors_reported(self, tmp_path):
        path = write_cfg(tmp_path, "[operator]\nn_bins = many\n")
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        assert "n_bins" in str(err.value)

    @pytest.mark.parametrize("text,lines", [
        ("[coupling]\nepsilon = 0.05\nepsilon = 0.1\n", (2, 3)),
        ("[coupling]\nepsilon = 0.05\n\n[map]\na = 0.01\n\n[coupling]\nepsilon = 0.1\n", (2, 8)),
    ])
    def test_repeated_key_rejected_with_both_lines(self, tmp_path, text, lines, capsys):
        # the last value read used to win: "config OK", and a run at 0.1
        path = write_cfg(tmp_path, text)
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        first, again = lines
        assert err.value.violations == [
            f"line {again}: [coupling] epsilon repeats line {first}"
        ]
        assert main(["validate", path]) == 2
        assert f"epsilon repeats line {first}" in capsys.readouterr().err

    def test_repeated_experiment_rejected(self, tmp_path):
        # eigen, eigen ran as eigen under another fingerprint
        v = validate_config(cl.ExperimentConfig(experiments=("eigen", "ly", "eigen")))
        assert v == ["experiments ['eigen'] listed more than once"]
        path = write_cfg(tmp_path, "[run]\nexperiments = eigen, eigen\n")
        assert main(["validate", path]) == 2

    def test_schema_declares_each_key_once(self):
        # every config field is one key of one section, named after it
        attrs = [attr for keys in cli._SCHEMA.values() for attr in keys.values()]
        assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(cl.ExperimentConfig))
        assert cli._SCHEMA["map"] == {"kind": "map_kind", "a": "a"}
        assert cli._SCHEMA["potential"]["kind"] == "potential_kind"

    def test_readme_config_block_is_the_default_config(self, tmp_path):
        # the README's ini block documents every key at its default
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        keys = {
            (sec, line.split("=")[0].strip())
            for sec, body in re.findall(r"\[(\w+)\]\n(.*?)(?=\n\[|\Z)", block, flags=re.S)
            for line in body.splitlines() if "=" in line
        }
        assert keys == {(sec, key) for sec, ks in cli._SCHEMA.items() for key in ks}
        assert cl.parse_config(write_cfg(tmp_path, block)) == cl.ExperimentConfig()


class TestValidation:
    def test_default_config_is_valid(self):
        assert validate_config(cl.ExperimentConfig()) == []

    def test_each_semantic_violation_caught(self):
        bad = [
            dict(epsilon=0.5),
            dict(theta=0.0),
            dict(beta=1.5),
            dict(alpha=0.9, theta=0.95),
            dict(a=0.2),
            dict(map_kind="tent"),
            dict(potential_kind="mystery"),
            dict(n_bins=1),
            dict(burn_in=10_000),
            dict(experiments=("eigen", "alchemy")),
            dict(epsilon=0.26),  # contraction pre-flight: C_E * eta >= 1
        ]
        for kw in bad:
            assert validate_config(cl.ExperimentConfig(**kw)), kw

    def test_negative_burn_in_and_seed_rejected(self, tmp_path):
        # a negative burn_in left uninitialised columns in the CLT series;
        # a negative seed failed later, inside the experiments
        v = validate_config(cl.ExperimentConfig(burn_in=-3, seed=-1, n_steps=10))
        assert v == ["burn_in=-3 must be nonnegative", "seed=-1 must be nonnegative"]
        path = write_cfg(tmp_path, "[run]\nseed = -1\nburn_in = -3\nn_steps = 10\n")
        with pytest.raises(cl.ConfigError) as err:
            cl.parse_config(path)
        assert "burn_in=-3" in str(err.value) and "seed=-1" in str(err.value)

    def test_preflight_uses_exact_coupling_constant(self, tmp_path, capsys):
        # C_E * eta = 1.148 at eps = 0.2, k = 1, a = 0.05; the bound
        # 1/(1 - 2 eps) gave 0.989 and let this config through
        v = validate_config(cl.ExperimentConfig(epsilon=0.2))
        assert len(v) == 1 and "contraction pre-flight" in v[0]
        # at eps = 0.15, C_E * eta is 0.959 on the k = 1 window but 1.016
        # on the lattice (C_E = 1.7124); eps = 0.14 contracts there (0.973)
        v = validate_config(cl.ExperimentConfig(epsilon=0.15))
        assert len(v) == 1 and "contraction pre-flight" in v[0]
        assert "on the lattice, whose C_E >= 1.6954 (window k = 2" in v[0]
        assert validate_config(cl.ExperimentConfig(epsilon=0.14)) == []
        assert main(["validate", write_cfg(tmp_path, "[coupling]\nepsilon = 0.15\n")]) == 2
        assert "the lattice, whose C_E >= 1.6954" in capsys.readouterr().err
        assert main(["validate", write_cfg(tmp_path, "[coupling]\nepsilon = 0.14\n")]) == 0

    def test_preflight_widens_until_c_e_settles(self, monkeypatch):
        # the pre-flight reads C_E on windows k = 1, 2, ... until two agree
        # to 1e-12 relative; at eps = 0.14 that takes k = 16
        widths = []
        read = cli.estimate_coupling_constant

        def recorded(coupling, m, k):
            widths.append(k)
            return read(coupling, m, k)

        monkeypatch.setattr(cli, "estimate_coupling_constant", recorded)
        assert validate_config(cl.ExperimentConfig(epsilon=0.14)) == []
        assert widths == list(range(1, 17))
        # a C_E that never settles below C_E * eta = 1 is refused at the cap
        monkeypatch.setattr(cli, "estimate_coupling_constant", lambda c, m, k: 1.0 + 1e-9 * k)
        v = validate_config(cl.ExperimentConfig())
        assert v == [f"contraction pre-flight failed: C_E had not settled by k = {cli.CE_MAX_K}"]

    @pytest.mark.parametrize("name", ["desk", "fine", "flat"])
    def test_benchmark_workloads_validate(self, name):
        path = os.path.join(ROOT, "perfbench", "workloads", f"{name}.cfg")
        assert validate_config(cl.parse_config(path)) == []
        assert main(["validate", path]) == 0

    def test_coupling_rules_come_from_the_coupling(self):
        # validate reports the coupling's own message, both rules in one
        for kw in (dict(epsilon=0.5), dict(coupling_kind="ring"), dict(epsilon=-0.1)):
            cfg = cl.ExperimentConfig(**kw)
            with pytest.raises(ValueError) as err:
                cfg.coupling()
            assert validate_config(cfg) == [str(err.value)]

    def test_decaying_sine_base_must_exceed_one(self):
        # base = 1 divided by zero in the declared sup norm; below 1 that
        # norm is negative
        for base in (1.0, 0.5):
            v = validate_config(
                cl.ExperimentConfig(potential_kind="decaying_sine", base=base)
            )
            assert v == [f"base={base} must exceed 1 for the decaying_sine potential"]
        assert validate_config(cl.ExperimentConfig(base=1.0)) == []
        # the rule is the potential's own
        for base in (1.0, 0.5):
            with pytest.raises(ValueError, match=f"base={base} must exceed 1"):
                cl.decaying_sine_potential(0.1, base=base)

    def test_unknown_kinds_raise_in_the_builders(self):
        # they used to build the perturbed map and the srb potential
        with pytest.raises(ValueError, match="map kind 'tent' not in"):
            cl.ExperimentConfig(map_kind="tent").node_map()
        with pytest.raises(ValueError, match="potential kind 'mystery' not in"):
            cl.ExperimentConfig(potential_kind="mystery").potential()

    @pytest.mark.parametrize("build,kw", [
        ("metric", dict(theta=1.0, beta=7.0)),
        ("metric", dict(theta=0.0)),
        ("metric", dict(alpha=0.9, theta=0.95)),
        # the potential raises the metric's message again: reported once
        ("metric", dict(theta=2.0, potential_kind="node_sine")),
        ("node_map", dict(a=0.2)),
        ("node_map", dict(map_kind="tent")),
        ("potential", dict(potential_kind="mystery")),
        ("potential", dict(potential_kind="node_sine", amplitude=math.nan)),
        ("potential", dict(potential_kind="decaying_sine", amplitude=math.inf)),
        ("ensemble", dict(map_kind="doubling")),
    ])
    def test_rules_come_from_their_owners(self, build, kw):
        # validate reports the owner's own message, every failed rule in one
        cfg = cl.ExperimentConfig(**kw)
        with pytest.raises(ValueError) as err:
            getattr(cfg, build)()
        assert validate_config(cfg) == [str(err.value)]

    def test_metric_names_every_broken_rule(self):
        v = validate_config(cl.ExperimentConfig(theta=1.0, beta=7.0))
        assert v == ["theta=1.0 outside the open interval (0, 1); beta=7.0 outside (0, 1]"]

    def test_non_finite_amplitude_refused(self, tmp_path):
        # eigen and spectral each ran power_iterate to its step cap on it
        text = "[potential]\nkind = node_sine\namplitude = nan\n"
        assert main(["validate", write_cfg(tmp_path, text)]) == 2

    def test_overflowing_bound_is_a_violation(self):
        # srb's bound sums theta^-|j| over the window, past float range here
        v = validate_config(cl.ExperimentConfig(theta=1e-200, k=2, n_bins=4))
        assert v == [
            "srb potential's Hoelder bound sums theta^(-beta |j|) over the window "
            "k = 2, which leaves float range at theta=1e-200, beta=1.0"
        ]

    def test_overflowing_node_weight_names_its_keys(self):
        # theta^(-beta |node|) at node 2 was one float power, whose
        # OverflowError named no key
        v = validate_config(cl.ExperimentConfig(
            potential_kind="node_sine", node=2, theta=1e-200, k=2, n_bins=4
        ))
        assert len(v) == 1
        assert "theta=1e-200" in v[0] and "node 2" in v[0]
        assert "OverflowError" not in v[0]

    @pytest.mark.parametrize(
        "potential, message",
        [
            (
                "srb",
                "srb potential's Hoelder bound sums theta^(-beta |j|) over the "
                "window k = 2, which leaves float range at theta=1e-200, beta=1.0",
            ),
            (
                "zero",
                "contraction pre-flight failed: C_E is not finite at theta=1e-200, "
                "beta=1.0 (window k = 2): the metric's weights theta^-|j| leave "
                "float range",
            ),
        ],
    )
    def test_tiny_theta_refused_without_warnings(self, tmp_path, capsys, potential, message):
        # theta^|j| underflows at k = 2: C_E was 0/0, NaN with RuntimeWarnings,
        # and the pre-flight widened 62 more windows before it gave up
        text = (
            f"[metric]\ntheta = 1e-200\n[potential]\nkind = {potential}\n"
            "[operator]\nk = 2\nn_bins = 4\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["validate", write_cfg(tmp_path, text)]) == 2
        assert capsys.readouterr().err.strip().splitlines()[-1].endswith(message)

    def test_non_finite_ce_is_refused_at_its_window(self):
        # C_E is finite at the configured k = 1 and inf one window wider
        v = validate_config(cl.ExperimentConfig(theta=1e-100, k=1, potential_kind="zero"))
        assert v == [
            "contraction pre-flight failed: C_E is not finite at theta=1e-100, "
            "beta=1.0 (window k = 2): the metric's weights theta^-|j| leave float range"
        ]

    def test_decaying_sine_potential_gets_the_metric(self):
        cfg = cl.ExperimentConfig(potential_kind="decaying_sine", theta=0.25, alpha=0.5)
        ref = cl.decaying_sine_potential(0.1, 4.0, metric=cfg.metric())
        default = cl.decaying_sine_potential(0.1, 4.0)
        assert cfg.potential().declared_beta_norm == ref.declared_beta_norm
        assert ref.declared_beta_norm != default.declared_beta_norm

    def test_clt_needs_its_replica_floor(self):
        v = validate_config(cl.ExperimentConfig(n_replicas=100))
        assert v == [
            f"n_replicas=100 is below the {CLT_MIN_REPLICAS} replicas "
            "the clt experiment needs"
        ]
        no_clt = tuple(e for e in cl.ExperimentConfig().experiments if e != "clt")
        assert validate_config(
            cl.ExperimentConfig(n_replicas=100, experiments=no_clt)
        ) == []
        assert validate_config(cl.ExperimentConfig(n_replicas=CLT_MIN_REPLICAS)) == []

    def test_fingerprint_tracks_config(self):
        a = cl.ExperimentConfig()
        b = cl.ExperimentConfig(seed=43)
        assert a.fingerprint() == cl.ExperimentConfig().fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_canonical_text_roundtrip(self, tmp_path):
        cfg = cl.ExperimentConfig(a=0.03, n_bins=32)
        back = cl.parse_config(write_cfg(tmp_path, cfg.canonical_text()))
        assert back == cfg
        assert back.fingerprint() == cfg.fingerprint()


class TestRunner:
    def test_eigen_only_doubling_run(self, tmp_path):
        out = os.path.join(tmp_path, "rep")
        cfg = cl.parse_config(
            write_cfg(tmp_path, EIGEN_ONLY.format(out=out))
        )
        report = cl.run_experiment(cfg)
        assert report.errors == {}
        assert report.results["eigen"]["lambda"]["value"] == pytest.approx(
            1.0, abs=1e-10
        )

    def test_failures_are_recorded_not_raised(self, tmp_path, monkeypatch):
        # a step that raises is recorded as an error, and the run goes on
        # to the next experiment
        def fail(cfg, state, report):
            raise RuntimeError("step failed")

        monkeypatch.setitem(cli._EXPERIMENT_STEPS, "eigen", fail)
        text = EIGEN_ONLY.replace("experiments = eigen", "experiments = eigen, spectral")
        cfg = cl.parse_config(
            write_cfg(tmp_path, text.format(out=os.path.join(tmp_path, "r")))
        )
        report = cl.run_experiment(cfg)
        assert report.errors == {"eigen": "RuntimeError: step failed"}
        assert set(report.results) == {"spectral"}

    def test_reports_are_byte_identical(self, tmp_path):
        out = os.path.join(tmp_path, "rep")
        cfg = cl.parse_config(write_cfg(tmp_path, EIGEN_ONLY.format(out=out)))
        d1, d2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        cl.emit_report(cl.run_experiment(cfg), d1)
        cl.emit_report(cl.run_experiment(cfg), d2)
        names = [n for n in os.listdir(d1) if n != "timing.txt"]
        assert "summary.txt" in names and "report.json" in names
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        assert mismatch == [] and errors == []

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-9])
    def test_eigen_gate_reads_the_solve_residual(self, scale):
        # h off by 1e-9 relative on one cell fails the 1e-12 gate; the
        # normalized operator would still have rows summing to one
        cfg = cl.ExperimentConfig()
        state = {}
        eigen = cli._eigen_data(cfg, state)
        v = eigen.v.copy()
        v[100] *= scale
        state["eigen"] = dataclasses.replace(eigen, v=v)
        report = cl.RunReport(fingerprint="", config=cfg)
        cli._step_eigen(cfg, state, report)
        entry = report.results["eigen"]["normalized_row_defect"]
        assert entry["passed"] is (scale == 1.0), entry
        assert (entry["tolerance"], entry["target"]) == (1e-12, 0.0)

    def test_conformality_target_is_per_branch_constant(self, tmp_path):
        # on the flat k=1 system each of the b^d = 8 branches carries 1/8
        out = os.path.join(tmp_path, "rep")
        cfg = cl.parse_config(write_cfg(tmp_path, FLAT_CONFORMALITY.format(out=out)))
        entry = cl.run_experiment(cfg).results["conformality"]["ratio_mean"]
        assert entry["target"] == "1/b^d = 0.125"
        assert entry["passed"], entry

    def test_conformality_points_in_timing_only(self, tmp_path, monkeypatch):
        # the quadrature points summed over the 20 boxes go to timing.txt,
        # outside the fingerprinted files
        out = os.path.join(tmp_path, "rep")
        path = write_cfg(tmp_path, FLAT_CONFORMALITY.format(out=out))
        monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
        assert main(["run", path]) == 0
        cfg = cli.parse_config(path)
        op = cli._coupled_op(cfg, {})
        rng = np.random.default_rng(cfg.seed)
        boxes = [
            cl.random_admissible_box(op.grid, op.node_map, rng, min_bins=2)
            for _ in range(20)
        ]
        points = sum(cl.check_conformality(op, box).points for box in boxes)
        with open(os.path.join(out, "timing.txt")) as fh:
            line = fh.read().splitlines()[-1]
        assert re.fullmatch(
            rf"conformality: \d+\.\d{{3}} s  peak RSS \d+\.\d MB  points {points}", line
        )
        with open(os.path.join(out, "report.json")) as fh:
            assert '"points"' not in fh.read()

    @pytest.mark.parametrize("experiment", ["twisted", "clt"])
    def test_each_experiment_writes_only_its_own_section(self, tmp_path, experiment):
        # twisted and clt read the Green-Kubo variance without running the
        # correlation experiment, and twisted does not run ly
        run = f"[run]\nexperiments = {experiment}\nn_steps = 300\nn_replicas = 500\n"
        cfg = cl.parse_config(write_cfg(tmp_path, MINIMAL + run))
        report = cl.run_experiment(cfg)
        assert report.errors == {}
        assert set(report.results) == {experiment}

    def test_csv_values_are_float_reprs(self, tmp_path):
        # every value is written as repr(float(v)), whatever the array's dtype
        report = cl.RunReport(fingerprint="", config=cl.ExperimentConfig())
        report.arrays["counts"] = np.array([[1, 2], [3, 4]])
        report.arrays["values"] = np.array([0.1, 1 / 3, 1e-300, -2.0])
        report.arrays["narrow"] = np.array([0.1], dtype=np.float32)
        cl.emit_report(report, tmp_path)
        read = lambda name: pathlib.Path(tmp_path, f"{name}.csv").read_text()
        assert read("counts") == "1.0,2.0\n3.0,4.0\n"
        assert read("values") == "0.1,0.3333333333333333,1e-300,-2.0\n"
        assert read("narrow") == repr(float(np.float32(0.1))) + "\n"

    def test_summary_contains_fingerprint(self, tmp_path):
        out = os.path.join(tmp_path, "rep")
        cfg = cl.parse_config(write_cfg(tmp_path, EIGEN_ONLY.format(out=out)))
        report = cl.run_experiment(cfg)
        cl.emit_report(report, out)
        text = pathlib.Path(out, "summary.txt").read_text()
        assert cfg.fingerprint() in text


class TestMain:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MINIMAL)
        assert main(["validate", path]) == 0
        assert "fingerprint" in capsys.readouterr().out

    def test_validate_bad_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[coupling]\nepsilon = 0.7\n")
        assert main(["validate", path]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_validate_rejects_grid_over_cell_budget(self, tmp_path, capsys):
        # 16^3 = 4,096 cells over a budget of 1,000 fails at validate, with
        # ulam_matrix's numbers, rather than in every experiment of a run
        path = write_cfg(tmp_path, MINIMAL + "\n[operator]\ncell_budget = 1000\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "grid needs 4096 cells, over the budget of 1000" in err
        assert "raise cell_budget to at least 4096" in err
        assert validate_config(cl.ExperimentConfig(cell_budget=4096)) == []

    def test_validate_names_the_budget_of_a_wide_window(self, tmp_path, capsys):
        # 16^4001 cells has more digits than int-to-str converts: the
        # violation names the count as a power and never forms it in full
        path = write_cfg(tmp_path, MINIMAL + "\n[operator]\nk = 2000\n")
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "grid needs 16^4001 cells, over the budget of 100000" in err
        assert "raise cell_budget to at least 16^4001" in err
        wider = validate_config(cl.ExperimentConfig(k=100_000_000))
        assert any("grid needs 16^200000001 cells" in line for line in wider)

    def test_validate_rejects_coupled_pullback_clt(self, tmp_path, capsys):
        # the doubling map's clt is pulled back, which has no coupling: a
        # nonzero epsilon fails at validate, not in the clt step after
        # every other experiment has run
        text = EIGEN_ONLY.replace("experiments = eigen", "experiments = eigen, clt")
        text = text.replace("epsilon = 0.0", "epsilon = 0.05")
        text += "n_steps = 300\nn_replicas = 500\nburn_in = 100\n"
        text = text.format(out=os.path.join(tmp_path, "r"))
        assert main(["validate", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "clt samples the doubling map by pull-back" in err
        assert "supports the uncoupled system only" in err
        assert "epsilon=0.05 must be 0" in err
        assert main(["validate", write_cfg(tmp_path, text.replace("clt", "spectral"))]) == 0

    def test_run_writes_reports(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "rep")
        path = write_cfg(tmp_path, EIGEN_ONLY.format(out=out))
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(out, "summary.txt"))
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        out = os.path.join(tmp_path, "ignored")
        override = os.path.join(tmp_path, "override")
        monkeypatch.setenv("CML_LAB_OUTPUT_DIR", override)
        path = write_cfg(tmp_path, EIGEN_ONLY.format(out=out))
        assert main(["run", path]) == 0
        assert os.path.exists(os.path.join(override, "summary.txt"))
        assert not os.path.exists(out)

    def test_timing_records_peak_rss(self, tmp_path, monkeypatch, capsys):
        # each timing line carries the RSS high-water mark after its step;
        # timing.txt stays out of the byte-identity promise, the rest not
        text = EIGEN_ONLY.replace(
            "experiments = eigen", "experiments = eigen, spectral, correlation"
        )
        path = write_cfg(tmp_path, text.format(out=os.path.join(tmp_path, "r")))
        dirs = [os.path.join(tmp_path, name) for name in ("a", "b")]
        for out in dirs:
            monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
            assert main(["run", path]) == 0
        for out in dirs:
            lines = pathlib.Path(out, "timing.txt").read_text().splitlines()
            assert [line.split(":")[0] for line in lines] == [
                "eigen", "spectral", "correlation"
            ]
            peaks = []
            for line in lines:
                match = re.fullmatch(r"\w+: \d+\.\d{3} s  peak RSS (\d+\.\d) MB", line)
                assert match, line
                peaks.append(float(match.group(1)))
            assert 0.0 < peaks[0] and peaks == sorted(peaks)
        names = sorted(n for n in os.listdir(dirs[0]) if n != "timing.txt")
        assert sorted(os.listdir(dirs[1])) == sorted(names + ["timing.txt"])
        match, mismatch, errors = filecmp.cmpfiles(*dirs, names, shallow=False)
        assert sorted(match) == names and mismatch == [] and errors == []

    def test_spectral_diagnostics_in_report(self, tmp_path, monkeypatch, capsys):
        # how each spectral solve ran goes to report.json's diagnostics key:
        # deterministic (two runs give the same bytes), no verdict, and
        # nothing of it in summary.txt
        coupled = MINIMAL.replace("epsilon = 0.05", "epsilon = 0.1") + (
            "\n[operator]\nk = 1\nn_bins = 16\n\n[run]\nexperiments = spectral\n"
        )
        dense = EIGEN_ONLY.replace("experiments = eigen", "experiments = spectral")
        expected = {
            "coupled": {"solver": "arnoldi", "cells_solved": 3378, "n_cells": 4096},
            "dense": {
                "solver": "dense", "cells_solved": 64, "n_cells": 64,
                "operator_applications": 0, "restarts": 0, "ritz_residual": None,
            },
        }
        for name, text in (("coupled", coupled), ("dense", dense)):
            path = write_cfg(
                tmp_path, text.format(out=os.path.join(tmp_path, "unused")), f"{name}.cfg"
            )
            docs = []
            for run in ("a", "b"):
                out = os.path.join(tmp_path, name + run)
                monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
                assert main(["run", path]) == 0
                with open(os.path.join(out, "report.json"), "rb") as fh:
                    docs.append(fh.read())
                with open(os.path.join(out, "summary.txt")) as fh:
                    assert "cells_solved" not in fh.read()
            assert docs[0] == docs[1]
            diag = json.loads(docs[0])["diagnostics"]
            assert list(diag) == ["spectral"]
            assert diag["spectral"].items() >= expected[name].items()
            assert "passed" not in diag["spectral"]
            arnoldi = diag["spectral"]["solver"] == "arnoldi"
            assert (diag["spectral"]["operator_applications"] > 0) == arnoldi
            if arnoldi:
                # how the Arnoldi solve ended: its restarts, and a largest
                # relative Ritz residual of the six values below the tolerance
                assert diag["spectral"]["restarts"] > 0
                assert 0.0 < diag["spectral"]["ritz_residual"] <= spectral._ARNOLDI_TOL

    def test_clt_diagnostics_in_report(self, tmp_path, monkeypatch, capsys):
        # the ensemble's size and the standard error of its sigma^2 go to
        # diagnostics, next to the verdicts, and nothing of it to summary.txt
        run = "[run]\nexperiments = clt\nn_steps = 300\nn_replicas = 500\nburn_in = 100\n"
        path = write_cfg(tmp_path, MINIMAL + run)
        out = os.path.join(tmp_path, "rep")
        monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
        assert main(["run", path]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        diag = doc["diagnostics"]["clt"]
        assert (diag["replicas"], diag["kept_steps"]) == (500, 200)
        emp = doc["results"]["clt"]["empirical_sigma2"]["value"]
        # a mean of 500 squared near-normal sums: about sqrt(2/500) = 6%
        assert 0.03 * emp < diag["empirical_sigma2_stderr"] < 0.1 * emp
        assert "passed" not in diag
        with open(os.path.join(out, "summary.txt")) as fh:
            assert "stderr" not in fh.read()

    def test_power_iteration_diagnostics_in_report(self, tmp_path, monkeypatch, capsys):
        # how each triple's two power iterations ended: diagnostics.eigen
        # for 'P' and diagnostics.spectral for the coupled triple; the
        # ensemble's share count goes to timing.txt only
        run = (
            "[operator]\nk = 1\nn_bins = 8\n\n[run]\n"
            "experiments = eigen, spectral, clt\n"
            "n_steps = 300\nn_replicas = 500\nburn_in = 100\n"
        )
        path = write_cfg(tmp_path, MINIMAL + run)
        out = os.path.join(tmp_path, "rep")
        monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
        assert main(["run", path]) == 0
        with open(os.path.join(out, "report.json")) as fh:
            diag = json.load(fh)["diagnostics"]
        cfg = cli.parse_config(path)
        p_triple = cli._eigen_data(cfg, {})
        coupled_triple = cli._coupled_op(cfg, {}).eigen
        for section, eigen in (("eigen", p_triple), ("spectral", coupled_triple)):
            for name in ("v", "nu"):
                steps, change = getattr(eigen, f"{name}_iteration")
                assert diag[section][f"{name}_power_steps"] == steps >= 1
                assert diag[section][f"{name}_power_change"] == change
                # iterates sum to one, so the stop rule bounds the change
                assert 0.0 <= change <= cl.transfer._POWER_TOL
        assert "shares" not in json.dumps(diag)
        with open(os.path.join(out, "timing.txt")) as fh:
            clt = fh.read().splitlines()[-1]
        assert re.fullmatch(r"clt: \d+\.\d{3} s  peak RSS \d+\.\d MB  shares 1", clt)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="shares past the first need os.fork")
    def test_assembly_shares_in_timing_only(self, tmp_path, monkeypatch, cpus, deadline, capsys):
        # the line of the step that built the coupled operator gives its
        # assembly's shares; every other file keeps its bytes
        run = "[operator]\nk = 1\nn_bins = 8\n\n[run]\nexperiments = spectral, correlation\n"
        path = write_cfg(tmp_path, MINIMAL + run)
        # slabs of 7 of the 512 cells, each worth a share
        monkeypatch.setattr(transfer, "_SLAB_POINTS", 448)
        monkeypatch.setattr(transfer, "_SHARE_POINTS", 1)
        outs = []
        for n in (2, 1):
            cpus(n)
            out = os.path.join(tmp_path, f"rep{n}")
            monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
            assert main(["run", path]) == 0
            with open(os.path.join(out, "timing.txt")) as fh:
                spectral_line, correlation_line = fh.read().splitlines()
            assert re.fullmatch(
                rf"spectral: \d+\.\d{{3}} s  peak RSS \d+\.\d MB  assembly_shares {n}",
                spectral_line,
            )
            assert re.fullmatch(r"correlation: \d+\.\d{3} s  peak RSS \d+\.\d MB", correlation_line)
            with open(os.path.join(out, "report.json")) as fh:
                assert "assembly_shares" not in fh.read()
            outs.append(out)
        names = sorted(n for n in os.listdir(outs[0]) if n != "timing.txt")
        _, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
        assert mismatch == [] and errors == []
        assert_no_children()

    def test_gap_parts_and_threads_in_timing_only(self, tmp_path, monkeypatch, cpus, capsys):
        # the spectral line gives the row parts and threads of the Arnoldi
        # gap solve (k=1, N=16: 4,096 cells); the threads depend on the
        # CPUs, so report.json holds neither, and every other file keeps
        # its bytes whatever the threads
        path = write_cfg(tmp_path, MINIMAL + "[run]\nexperiments = spectral\n")
        line = r"spectral: \d+\.\d{{3}} s  peak RSS \d+\.\d MB  gap_parts {}  gap_threads {}  assembly_shares 1"
        outs = []
        for split_nnz, parts, n in ((transfer._SPLIT_NNZ, 1, 2), (1, 2, 2), (1, 2, 1)):
            monkeypatch.setattr(transfer, "_SPLIT_NNZ", split_nnz)
            cpus(n)
            out = os.path.join(tmp_path, f"rep{parts}{n}")
            monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
            assert main(["run", path]) == 0
            with open(os.path.join(out, "timing.txt")) as fh:
                (spectral_line,) = fh.read().splitlines()
            assert re.fullmatch(line.format(parts, min(parts, n)), spectral_line)
            with open(os.path.join(out, "report.json")) as fh:
                assert "gap_" not in fh.read()
            outs.append(out)
        names = sorted(n for n in os.listdir(outs[1]) if n != "timing.txt")
        _, mismatch, errors = filecmp.cmpfiles(outs[1], outs[2], names, shallow=False)
        assert mismatch == [] and errors == []

    def test_correlation_diagnostics_in_report(self, tmp_path, monkeypatch, capsys):
        # how the Green-Kubo resolvent sum ended goes to diagnostics: the
        # products it took and its last iterate's sup-norm; a sum that
        # reaches the product cap fails the experiment with that norm
        path = write_cfg(tmp_path, MINIMAL + "[run]\nexperiments = correlation\n")
        docs, codes, default = {}, {}, spectral._GK_MAX_PRODUCTS
        for cap in (default, 5):
            monkeypatch.setattr(spectral, "_GK_MAX_PRODUCTS", cap)
            out = os.path.join(tmp_path, f"cap{cap}")
            monkeypatch.setenv("CML_LAB_OUTPUT_DIR", out)
            codes[cap] = main(["run", path])
            with open(os.path.join(out, "report.json")) as fh:
                docs[cap] = json.load(fh)
            with open(os.path.join(out, "summary.txt")) as fh:
                assert "last_norm" not in fh.read()
        assert codes[default] == 0 and docs[default]["errors"] == {}
        diag = docs[default]["diagnostics"]["correlation"]
        assert sorted(diag) == ["green_kubo_last_norm", "green_kubo_products"]
        assert 5 < diag["green_kubo_products"] < default
        assert 0.0 <= diag["green_kubo_last_norm"] <= 1e-14 * 0.5
        assert codes[5] == 1 and "correlation" not in docs[5]["results"]
        assert re.fullmatch(
            r"ValueError: Green-Kubo sum did not converge in 5 products: "
            r"last sup-norm \S+ against \S+",
            docs[5]["errors"]["correlation"],
        )

    def test_export_operator_roundtrip(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "rep")
        dest = os.path.join(tmp_path, "op.txt")
        path = write_cfg(tmp_path, EIGEN_ONLY.format(out=out))
        assert main(["export-operator", path, "-o", dest]) == 0
        op = cl.load_operator(dest)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        support = sums > 0.0
        assert np.max(np.abs(sums[support] - 1.0)) < 1e-12


class TestBenchmarkHooks:
    def test_wrapped_names_are_callable_on_cli(self):
        from cml_lab import cli

        for name in BENCHMARK_HOOKS:
            assert callable(getattr(cli, name)), name
        assert set(cli._EXPERIMENT_STEPS) == set(cli.EXPERIMENTS)

    @pytest.mark.parametrize("name,kind", [
        ("doubling_map", "doubling"), ("perturbed_doubling_map", "perturbed_doubling"),
    ])
    def test_node_map_reads_the_builders_at_call_time(self, name, kind, monkeypatch):
        # a wrapper set on cli after import is the builder node_map() runs
        built = getattr(cli, name)()
        monkeypatch.setattr(cli, name, lambda *args: built)
        assert cl.ExperimentConfig(map_kind=kind).node_map() is built


class TestModuleEntry:
    def test_module_run_imports_cli_once(self, tmp_path):
        # the package must not import cli itself, or `python -m cml_lab.cli`
        # warns that it runs a second copy of the module as __main__
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cl.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "cml_lab.cli",
             "validate", write_cfg(tmp_path, MINIMAL)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "config OK" in out.stdout

    def test_run_loads_no_scipy_linalg_or_special(self, tmp_path):
        # a run solves its eigenproblems and the normal CDF with numpy and
        # math alone: scipy.sparse.linalg, scipy.linalg and scipy.special,
        # with their import time and memory, stay out of the process
        run = (
            "\n[operator]\nk = 1\nn_bins = 16\n\n[run]\n"
            "experiments = eigen, spectral, correlation, clt\n"
            "n_steps = 300\nn_replicas = 500\nburn_in = 100\n"
        )
        code = (
            "import json, sys\n"
            "import cml_lab.cli\n"
            "code = cml_lab.cli.main(['run', sys.argv[1]])\n"
            "print(json.dumps([m for m in ('scipy.sparse.linalg', 'scipy.linalg',"
            " 'scipy.special') if m in sys.modules]))\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(cl.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["CML_LAB_OUTPUT_DIR"] = str(tmp_path / "out")
        out = subprocess.run(
            [sys.executable, "-c", code, write_cfg(tmp_path, MINIMAL + run)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert os.path.exists(tmp_path / "out" / "report.json")
        assert json.loads(out.stdout.splitlines()[-1]) == []

    def test_cli_names_load_on_access(self):
        assert cl.parse_config is cli.parse_config
        assert cl.ConfigError is cli.ConfigError
        with pytest.raises(AttributeError):
            cl.no_such_name


class TestThreadCap:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
    )
    def test_thread_cap_applies_at_import(self):
        # the cap must reach BLAS before numpy loads it, so it is applied
        # when cml_lab is imported, not when main() runs
        code = (
            "import cml_lab, numpy as np\n"
            "a = np.ones((400, 400))\n"
            "a @ a\n"
            "print([l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('Threads:')][0])\n"
        )
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["CML_LAB_THREADS"] = "1"
        src = os.path.dirname(os.path.dirname(cl.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "1"

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs Linux /proc"
    )
    def test_thread_cap_runs_blas_on_one_thread(self):
        # a threaded BLAS adds its dot products in an order set by its
        # thread count, so any cap, not only 1, leaves BLAS on one thread
        # and the reports' bits do not move with the cap
        code = (
            "import os, cml_lab, numpy as np\n"
            "a = np.ones((400, 400))\n"
            "a @ a\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'],"
            " [l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('Threads:')][0])\n"
        )
        env = {
            k: v for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["CML_LAB_THREADS"] = "2"
        src = os.path.dirname(os.path.dirname(cl.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.split() == ["1", "1"]
