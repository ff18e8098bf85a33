import tracemalloc

import numpy as np
import pytest

from alqecg.data import Dataset, SplitSpec, normalize_dataset, split, synth_generate
from alqecg.net import (
    NetworkSpec,
    TrainConfig,
    conv,
    default_ecgnet_spec,
    dense,
    flatten,
    init_params,
    pool,
    softmax_dense,
    train,
)

# populated by the acceptance tests; printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def tiny_spec(class_count: int = 3) -> NetworkSpec:
    """A 59-parameter stack used for gradient and equivalence checks."""
    return NetworkSpec(
        [conv(3, 2, stride=1, padding=1), pool(2, 2), flatten(),
         dense(4), softmax_dense(class_count)],
        input_length=8,
        input_channels=1,
        class_count=class_count,
    )


def traced_peak(fn) -> int:
    """The lower traced peak of two calls of ``fn``, in bytes. In the full
    suite one call may also hold a one-off 1.92 MB block: the interpreter's
    table of interned strings, resized wherever its insertions run out of
    room. The lower call also leaves out lazy state that a first call makes."""
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            fn()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return min(peaks)


def noise_dataset(rng, n: int, length: int, classes: int) -> Dataset:
    """``n`` standard-normal records of ``length`` samples, each followed in
    ``rng``'s stream by its label in 0..classes-1."""
    draws = [(rng.normal(size=length), rng.integers(0, classes)) for _ in range(n)]
    samples, labels = zip(*draws)
    return Dataset(samples, labels, class_count=classes)


@pytest.fixture(scope="session")
def desk_data():
    """Noiseless synthetic 17-class data, normalized and split 80/20."""
    ds = synth_generate(40, seed=3, noise_sigma=0.0)
    ds, _ = normalize_dataset(ds)
    train_set, test_set = split(ds, SplitSpec(0.8, seed=1))
    return train_set, test_set


@pytest.fixture(scope="session")
def trained_network(desk_data):
    train_set, _ = desk_data
    network = init_params(default_ecgnet_spec(), 7)
    result = train(network, train_set, TrainConfig(epochs=25, batch_size=32, seed=7))
    return result.network
