"""End-to-end golden regression: the Fig. 8 reproduction must not drift.

``golden_fast_profile.json`` pins the fast-profile simulator's
accuracy/power/area at three pinned ``(config, VDD)`` points spanning
the paper's operating range.  Any refactor that silently changes the
physics, the Monte-Carlo streams, the fault-injection seeding or the
power/area accounting fails here loudly, with the drifted quantity
named.

Tolerances: power/area/expected-flips are deterministic scalar math on
deterministic Monte-Carlo streams, so they are held to 1e-9 relative.
Accuracies additionally sit downstream of BLAS-backed training, which
may round differently across numpy builds — they get an absolute band
of 0.005 (a real regression in the fault pipeline moves them by far
more; bit-exactness across execution layouts is enforced separately by
the serving/sharding property suites).
"""

import json
import os
import subprocess
import sys

import pytest

from tests.core.regen_golden import GOLDEN_PATH, SEED, request_memory

#: Deterministic-scalar relative tolerance.
REL = 1e-9
#: Accuracy absolute tolerance (BLAS headroom, far below a regression).
ACC_ABS = 0.005
#: sha256 prefix of the golden model's 8-bit image (the session
#: ``model`` fixture: seed 0, 4,000 images, 10 epochs), weight then bias
#: codes per layer, trained with one BLAS thread.  A training change that
#: moves any code fails here by name, even while the accuracies stay
#: inside ``ACC_ABS``.
MODEL_CODES_SHA256 = "b6893b9f41f2991c"


@pytest.fixture(scope="module")
def golden():
    assert os.path.isfile(GOLDEN_PATH), (
        "golden_fast_profile.json missing — run "
        "PYTHONPATH=src python tests/core/regen_golden.py"
    )
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["points"]


def test_golden_covers_three_vdd_points(golden):
    assert len(golden) == 3
    assert sorted(p["request"]["vdd"] for p in golden) == [0.65, 0.70, 0.90]


def test_golden_model_image_is_pinned():
    """The golden model trains again in a child with one BLAS thread:
    how a float32 product rounds depends on the BLAS thread count, so
    the session fixture's image (default threads) moves with the core
    count (2 codes differ between one and two threads on a 2-core box)."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    script = (
        "import hashlib\n"
        "from repro.core import train_benchmark_ann\n"
        "image = train_benchmark_ann(profile='fast', seed=0, n_train=4000,\n"
        "    n_val=400, n_test=1000, epochs=10, use_cache=False).image\n"
        "digest = hashlib.sha256()\n"
        "for w, b in zip(image.weight_codes, image.bias_codes):\n"
        "    digest.update(w.tobytes())\n"
        "    digest.update(b.tobytes())\n"
        "print(digest.hexdigest()[:16])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, check=True,
                            timeout=600)
    assert result.stdout.strip() == MODEL_CODES_SHA256


def test_fast_profile_matches_golden(sim, golden):
    for entry in golden:
        spec = entry["request"]
        label = f"{spec['config']} @ {spec['vdd']} V"
        memory = request_memory(sim, spec)
        evaluation = sim.evaluate(memory, seed=SEED)

        assert evaluation.baseline_accuracy == pytest.approx(
            entry["baseline_accuracy"], abs=ACC_ABS
        ), f"{label}: baseline accuracy drifted"
        assert list(evaluation.trial_accuracies) == pytest.approx(
            entry["trial_accuracies"], abs=ACC_ABS
        ), f"{label}: trial accuracies drifted"
        assert evaluation.mean_accuracy == pytest.approx(
            entry["mean_accuracy"], abs=ACC_ABS
        ), f"{label}: mean accuracy drifted"
        assert evaluation.expected_flips == pytest.approx(
            entry["expected_flips"], rel=REL, abs=1e-12
        ), f"{label}: expected flip count drifted"
        assert memory.access_power == pytest.approx(
            entry["access_power"], rel=REL
        ), f"{label}: access power drifted"
        assert memory.leakage_power == pytest.approx(
            entry["leakage_power"], rel=REL
        ), f"{label}: leakage power drifted"
        assert memory.area == pytest.approx(
            entry["area"], rel=REL
        ), f"{label}: area drifted"


def test_golden_qualitative_shape(golden):
    """The pinned points encode the paper's headline trends."""
    by_label = {
        (p["request"]["config"], p["request"]["vdd"]): p for p in golden
    }
    nominal = by_label[("base", 0.90)]
    scaled = by_label[("base", 0.70)]
    hybrid = by_label[("config1", 0.65)]

    # Voltage scaling saves access + leakage power...
    assert scaled["access_power"] < nominal["access_power"]
    assert scaled["leakage_power"] < nominal["leakage_power"]
    # ...while fault exposure grows monotonically as VDD falls.
    assert nominal["expected_flips"] <= scaled["expected_flips"]
    assert scaled["expected_flips"] < hybrid["expected_flips"]
    # The hybrid pays area for MSB protection and still holds accuracy.
    assert hybrid["area"] > nominal["area"]
    assert hybrid["mean_accuracy"] >= nominal["mean_accuracy"] - 0.01
