import sys
from pathlib import Path

import pytest

# let test modules import the shared oracle helpers
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(name)`` returns a list that gets one entry per call of ``atmarl.agents.<name>``, made through any atmarl module."""
    import atmarl

    def count(name: str) -> list:
        real = getattr(atmarl.agents, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("atmarl.") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
        return calls

    return count
