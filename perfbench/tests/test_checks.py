"""Each output check accepts outputs that satisfy its closed form and
rejects a report corrupted in the one place it looks at.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402

N, K, QUAD, A = 16, 1, 4, 0.05
D = 2 * K + 1


def _report(**values):
    results = {}
    for name, value in values.items():
        exp, key = name.split("__")
        results.setdefault(exp, {})[key] = {"value": value}
    return {"results": results, "errors": {}}


def flat_outputs():
    n_lags = 10
    c = [checks.flat_ulam_covariance(n, N) for n in range(n_lags + 1)]
    cells = N ** D
    return {
        "report": _report(eigen__lambda=1.0,
                          correlation__green_kubo_sigma2=checks.flat_ulam_sigma2(N),
                          spectral__sigma_hat=1.5e-6, spectral__gap=1.0 - 1.5e-6),
        "eigen_h": np.column_stack([np.ones(cells), np.full(cells, 1 / cells),
                                    np.full(cells, 1 / cells)]),
        "spectrum": np.array([[1.0, 0.0], [-1.5e-6, 0.0], [7e-7, 1e-6]]),
        "correlations": np.column_stack([np.arange(n_lags + 1), c]),
        "conformality_ratios": np.full((20, 1), 0.125) * (1 + 0.01 * np.sin(np.arange(20)))[:, None],
    }


@pytest.fixture(scope="module")
def desk_reference():
    return checks.desk_reference(A, N, D)


def desk_outputs(reference):
    h_ref, _ = reference
    c = 0.0725 * 0.27 ** np.arange(11)
    return {
        "report": _report(eigen__lambda=0.99972, correlation__green_kubo_sigma2=0.1249),
        "eigen_h": np.column_stack([h_ref + 1e-4, h_ref / h_ref.size, h_ref / h_ref.size]),
        "spectrum": np.array([[1.0, 0.0], [-0.4748, 0.0], [-0.21, 0.39]]),
        "correlations": np.column_stack([np.arange(11), c]),
    }


def _corrupt(outs, path, value):
    outs = copy.deepcopy(outs)
    key, *rest = path
    if key == "report":
        exp, name = rest
        outs["report"]["results"][exp][name]["value"] = value
    else:
        row, col = rest
        outs[key][row, col] = value
    return outs


def test_flat_closed_forms_accept_exact_outputs():
    assert checks.check_flat(flat_outputs(), N, K) == []


def test_flat_ulam_closed_forms():
    assert checks.flat_ulam_sigma2(16) == 225 / 1024
    assert checks.flat_ulam_covariance(0, 16) == 255 / 3072
    assert checks.flat_ulam_covariance(4, 16) == 0.0


@pytest.mark.parametrize("path,value", [
    (("report", "eigen", "lambda"), 1.001),                 # lambda = 1
    (("eigen_h", 7, 0), 1.01),                              # h = 1
    (("eigen_h", 7, 2), 2.0 / N ** D),                      # mu uniform
    (("spectrum", 0, 0), 0.999),                            # lambda_1 = 1
    (("spectrum", 1, 0), 0.05),                             # |lambda_2| = 0
    (("correlations", 0, 1), 1 / 12 + 1e-3),                # C_0 vs 1/12
    (("correlations", 2, 1), 0.25 / 12 * 1.1),              # C_2 vs 1/48
    (("correlations", 5, 1), 6e-3),                         # C_5 vs 2^-5/12, Ulam 0
    (("report", "correlation", "green_kubo_sigma2"), 0.2),  # sigma^2 vs 1/4
    (("report", "correlation", "green_kubo_sigma2"), 0.29),
    (("conformality_ratios", 3, 0), 0.5),                   # the 1/b target
    (("conformality_ratios", 3, 0), 0.125 * 1.1),
])
def test_flat_rejects_corruption(path, value):
    assert checks.check_flat(_corrupt(flat_outputs(), path, value), N, K)


def test_flat_rejects_biased_mean_ratio():
    outs = flat_outputs()
    outs["conformality_ratios"] *= 1.03
    assert checks.check_flat(outs, N, K)


def test_desk_reference_density():
    h_ref, allowance = checks.desk_reference(A, N, D)
    assert h_ref.shape == (N ** D,)
    assert abs(h_ref.mean() - 1.0) < 1e-12
    assert 0.0 < allowance < 1e-2
    # a = 0 is the doubling map: the density is 1 and Ulam is exact
    flat_ref, flat_allowance = checks.desk_reference(0.0, N, D)
    assert np.max(np.abs(flat_ref - 1.0)) < 1e-12 and flat_allowance < 1e-12


def test_desk_accepts_reference_outputs(desk_reference):
    outs = desk_outputs(desk_reference)
    assert checks.check_desk(outs, N, K, QUAD, A, desk_reference) == []


@pytest.mark.parametrize("path,value", [
    (("report", "eigen", "lambda"), 0.99),                  # grid allowance
    (("eigen_h", 100, 0), 1.2),                             # invariant density
    (("spectrum", 0, 0), 1.0 + 1e-8),                       # lambda_1 = 1
    (("spectrum", 1, 0), 1.0),                              # |lambda_2| < 1
    (("spectrum", 1, 0), 0.0),                              # |lambda_2| > 0
    (("correlations", 0, 1), 0.3),                          # Popoviciu
    (("correlations", 3, 1), -0.08),                        # |C_n| <= C_0
    (("report", "correlation", "green_kubo_sigma2"), 0.0),  # sigma^2 > 0
])
def test_desk_rejects_corruption(desk_reference, path, value):
    outs = _corrupt(desk_outputs(desk_reference), path, value)
    assert checks.check_desk(outs, N, K, QUAD, A, desk_reference)


def test_desk_rejects_uniform_density(desk_reference):
    outs = desk_outputs(desk_reference)
    outs["eigen_h"][:, 0] = 1.0
    assert checks.check_desk(outs, N, K, QUAD, A, desk_reference)


@pytest.mark.parametrize("path,value", [
    (("spectrum", 1, 1), 0.99),                             # |lambda_2| < 1
    (("correlations", 0, 1), -0.01),                        # C_0 > 0
    (("report", "correlation", "green_kubo_sigma2"), -1e-3),
])
def test_fine_rejects_corruption(desk_reference, path, value):
    outs = desk_outputs(desk_reference)
    assert checks.check_fine(outs) == []
    assert checks.check_fine(_corrupt(outs, path, value))


def _write_report(out_dir: Path, sigma_hat: float, extra: str = "0.5") -> None:
    out_dir.mkdir()
    doc = {"results": {"spectral": {"sigma_hat": {"value": sigma_hat},
                                    "gap": {"value": 1 - sigma_hat}}}, "errors": {}}
    (out_dir / "report.json").write_text(json.dumps(doc, indent=2))
    (out_dir / "summary.txt").write_text(
        f"[spectral]\n  sigma_hat = {sigma_hat!r}\n  gap = {1 - sigma_hat!r}\n")
    (out_dir / "spectrum.csv").write_text(f"1.0,0.0\n{sigma_hat!r},0.0\n")
    (out_dir / "correlations.csv").write_text(f"0.0,{extra}\n")
    (out_dir / "timing.txt").write_text(f"spectral: {sigma_hat} s\n")


def test_fingerprint_rejects_changed_file(tmp_path):
    _write_report(tmp_path / "a", 0.5)
    _write_report(tmp_path / "b", 0.5)
    (tmp_path / "b" / "timing.txt").write_text("spectral: 9 s\n")
    assert checks.fingerprint_digest(tmp_path / "a") == checks.fingerprint_digest(tmp_path / "b")
    _write_report(tmp_path / "c", 0.5, extra="0.6")
    assert checks.fingerprint_digest(tmp_path / "a") != checks.fingerprint_digest(tmp_path / "c")


def test_fingerprint_blanks_only_the_unstable_entries(tmp_path):
    unstable = run.UNSTABLE["flat"]
    _write_report(tmp_path / "a", 1.4e-6)
    _write_report(tmp_path / "b", 1.7e-6)
    assert checks.fingerprint_digest(tmp_path / "a") != checks.fingerprint_digest(tmp_path / "b")
    assert (checks.fingerprint_digest(tmp_path / "a", unstable)
            == checks.fingerprint_digest(tmp_path / "b", unstable))
    _write_report(tmp_path / "c", 1.7e-6, extra="0.6")
    assert (checks.fingerprint_digest(tmp_path / "a", unstable)
            != checks.fingerprint_digest(tmp_path / "c", unstable))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
