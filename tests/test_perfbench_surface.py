"""What the benchmark harness under ``perfbench/`` reads from the package.

The harness reports a run as failed when a module import, a traced name or
a workload's own checks break outside an operation, so each of those is
checked here, with the harness's files loaded as they are.
"""

import importlib
import importlib.util
from pathlib import Path

from valperm import kernels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    for name in tracing.SPANNED + tracing.COUNTED:
        layer, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"valperm.{layer}"), attr)), name
    assert isinstance(kernels.IMPL, str)


def test_the_fan4_pass_checks_clean_and_hashes_to_its_report():
    workloads = _load("workloads")
    problems, digest = workloads.run_fan4(lambda name: None)
    assert problems == []
    assert digest == workloads.FAN4_REPORT_SHA256


def test_the_first_seed_one_flag_has_its_pinned_digest():
    workloads = _load("workloads")
    (matrix,), _ = workloads.random_matrices(workloads.FLAG_N, workloads.DEFAULT_SEED, 1)
    problems, digest, _ = workloads.certify_flag(matrix)
    assert problems == []
    assert digest.startswith(workloads.PINNED_FLAG_DIGESTS[0])
