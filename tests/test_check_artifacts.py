"""The CI artifact checker's counter gate on the fused margin kernel."""

import importlib.util
import os

CHECK_ARTIFACTS = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "check_artifacts.py"
)


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_artifacts", os.path.abspath(CHECK_ARTIFACTS)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_low_check_accept_ratio_fails_the_artifact_check():
    checker = _checker()
    rows = [
        {"check_accept_ratio": 1.0},
        {"check_accept_ratio": 0.99},
        {"check_accept_ratio": 0.98},
        {"check_accept_ratio": float("nan")},
        {"check_accept_ratio": "1.0"},
    ]
    errors = []
    checker._check_accept_ratio(rows, errors)
    assert [e.split(" check_accept_ratio")[0] for e in errors] == [
        "margin_kernels: row 2",
        "margin_kernels: row 3",
        "margin_kernels: row 4",
    ]
    assert "check_accept_ratio" in checker.ROW_KEYS["margin_kernels"]
