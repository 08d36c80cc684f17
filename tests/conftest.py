from __future__ import annotations

import numpy as np
import pytest

from adinstall.network import NetworkConfig
from adinstall.prep import PreparedDataset


def make_batch(rng: np.random.Generator, cfg: NetworkConfig, n: int) -> PreparedDataset:
    """Random model-ready batch matching a network config, labels included."""
    return PreparedDataset(
        source_row_ids=tuple(str(i) for i in range(n)),
        cat_names=cfg.cat_columns,
        cat_codes=np.column_stack(
            [rng.integers(0, v + 1, n) for v in cfg.vocab_sizes]
        ).reshape(n, len(cfg.vocab_sizes)),
        bin_names=tuple(f"b{i}" for i in range(cfg.n_binary)),
        binary=rng.integers(0, 2, (n, cfg.n_binary)).astype(np.float64),
        num_names=tuple(f"x{i}" for i in range(cfg.n_numerical)),
        numeric=rng.uniform(0.0, 1.0, (n, cfg.n_numerical)),
        label_names=cfg.heads,
        labels=rng.integers(0, 2, (n, len(cfg.heads))).astype(np.float64),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def small_synth_dataset() -> PreparedDataset:
    """Learnable 2.4k-row dataset run through the real preprocessing path."""
    from adinstall.prep import fit_pipeline
    from adinstall.synth import SynthSpec, generate

    spec = SynthSpec(
        n_rows=2400,
        test_rows=100,
        seed=77,
        cat_vocab_sizes=(8, 30),
        n_binary=2,
        n_numerical=4,
        numeric_missing_rate=0.05,
        cat_missing_rate=0.02,
    )
    result = generate(spec)
    pipeline = fit_pipeline(result.train)
    return pipeline.transform(result.train)
