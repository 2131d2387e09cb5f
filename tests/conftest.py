import numpy as np
import pytest

from spla import (
    Block,
    BlockPartition,
    CovMatrix,
    DataMatrix,
    load_csv,
    sample_cov,
    standardize,
)
from importlib import resources


@pytest.fixture(scope="session")
def oecd_data() -> DataMatrix:
    path = resources.files("spla") / "fixtures" / "oecd.csv"
    with resources.as_file(path) as p:
        return load_csv(p)


@pytest.fixture(scope="session")
def exam_data() -> DataMatrix:
    path = resources.files("spla") / "fixtures" / "exam.csv"
    with resources.as_file(path) as p:
        return load_csv(p)


@pytest.fixture(scope="session")
def oecd_corr(oecd_data) -> CovMatrix:
    return sample_cov(standardize(oecd_data))


@pytest.fixture(scope="session")
def exam_cov(exam_data) -> CovMatrix:
    return sample_cov(exam_data)


def random_spd(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.normal(size=(m, m))
    return a @ a.T + m * np.eye(m)


def _seq_partition(sizes) -> BlockPartition:
    """Consecutive blocks of the given sizes, in order, from variable 0."""
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(Block(range(pos, pos + s)))
        pos += s
    return BlockPartition(tuple(blocks))


#: One verdict line per acceptance criterion, printed in the summary below.
RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
