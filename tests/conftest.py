import collections

import pytest


class CallCounter(collections.Counter):
    """Call counts of the functions a test wraps with :meth:`wrap`."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch

    def wrap(self, owner, name: str, key: str = "") -> None:
        """Replace ``owner.name`` (a module function or a class method) for
        the test by a wrapper that counts its calls under ``key`` (default
        ``name``)."""
        key = key or name
        wrapped = getattr(owner, name)
        self[key] = 0

        def wrapper(*args, **kwargs):
            self[key] += 1
            return wrapped(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, wrapper)


@pytest.fixture
def count_calls(monkeypatch):
    return CallCounter(monkeypatch)
