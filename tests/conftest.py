import sys
from pathlib import Path

import pytest

# let test modules import the shared oracle helpers
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def observe_calls(monkeypatch):
    """A list that gets one entry per ``agents.observe`` call, made through any atmarl module."""
    import atmarl

    real = atmarl.agents.observe
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("atmarl.") and getattr(module, "observe", None) is real:
            monkeypatch.setattr(module, "observe", counted)
    return calls
