import pytest

from vpkmeans import _kernels


@pytest.fixture
def bsgs_sizes(monkeypatch):
    """Slots each kernel series evaluation ran on, in call order: a folded
    series skips zero slots, and a paired evaluation the mirrored ones."""
    sizes = []
    original = _kernels._bsgs

    def spy(leaves, y):
        sizes.append(y.size)
        return original(leaves, y)

    monkeypatch.setattr(_kernels, "_bsgs", spy)
    return sizes
