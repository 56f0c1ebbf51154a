import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from depthart.vq import ScaleSchedule, VqModel
from depthart.var import VarConfig, VarModel


TINY_SCHEDULE = ScaleSchedule(((1, 1), (2, 2), (4, 4)))


@pytest.fixture(scope="session")
def tiny_vq():
    m = VqModel(schedule=TINY_SCHEDULE, codebook_size=12, emb_dim=4,
                raster=16, seed=100)
    # non-trivial eta conv so compositions are not pure embeddings
    rng = np.random.default_rng(0)
    m.params["eta/w"].data += rng.standard_normal(
        m.params["eta/w"].shape).astype(np.float32) * 0.05
    return m


@pytest.fixture(scope="session")
def tiny_var(tiny_vq):
    cfg = VarConfig(schedule=TINY_SCHEDULE, vocab=12, emb_dim=4,
                    width=32, heads=2, blocks=2)
    return VarModel(cfg, seed=5, codebook_init=tiny_vq.codebook.vectors)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps ``module.<name>`` for the test and
    returns the list the wrapper appends each call's arguments to."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install
