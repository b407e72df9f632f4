import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

DATA = Path(__file__).parent / "data"


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name): the list of argument tuples of every call
    of owner.name, a module's function or a class's method, under every
    hopfforge name bound to it."""
    def install(owner, name):
        original, calls = getattr(owner, name), []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("hopfforge") \
                    and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
        return calls
    return install
