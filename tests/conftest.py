import collections
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the np.linalg eigvalsh, eigh, cholesky, inv and solve calls made in the test."""
    calls = collections.Counter()
    for name in ("eigvalsh", "eigh", "cholesky", "inv", "solve"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls
