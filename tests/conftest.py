import importlib.util
import os
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import settings

from mbaloha.experiments import tabulate_moments
from mbaloha.geometry import MomentTable

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_TABLE = REPO_ROOT / "data" / "moments_k50_s250.txt"


def load_perfbench(name: str) -> ModuleType:
    """A fresh copy of ``perfbench/<name>.py``, loaded by path: ``perfbench``
    is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The one copy of the exact references that the benchmark checks its runs
# against: quadrature first moments, inclusion-exclusion over a user's
# stations and the dense all-pairs adjacency.
references = load_perfbench("references")


def rng_from(*material: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(material)))


@pytest.fixture(scope="session")
def tiny_table() -> MomentTable:
    """Small fresh table: k up to 6, moments up to s=12, quick to build."""
    return tabulate_moments(
        k_max=6, s_max=12, placements_per_k=500, samples_per_placement=4000, seed=1905
    )


@pytest.fixture(scope="session")
def default_table() -> MomentTable:
    if not DEFAULT_TABLE.exists():
        pytest.skip("default moment table not generated")
    return MomentTable.load(DEFAULT_TABLE)


def first_moment_stderr(table: MomentTable) -> np.ndarray:
    """Per k, the standard error of a fresh table's first moment.

    It comes from the first two moments: over P placements the sample
    variance of alpha_k is (E[alpha^2] - E[alpha]^2) P / (P - 1).
    """
    m1, m2 = table.moments[:, 0], table.moments[:, 1]
    return np.sqrt((m2 - m1 * m1) / (table.placements_per_k - 1))


def workers() -> int:
    return int(os.environ.get("MBALOHA_TEST_WORKERS", os.cpu_count() or 1))
