import pytest

from vpkmeans import _kernels


@pytest.fixture
def bsgs_sizes(monkeypatch):
    """Slots each kernel series evaluation ran on, in call order: a paired
    evaluation runs on fewer slots than the ciphertext has."""
    sizes = []
    original = _kernels._bsgs

    def spy(leaves, y):
        sizes.append(y.size)
        return original(leaves, y)

    monkeypatch.setattr(_kernels, "_bsgs", spy)
    return sizes
