"""The public API held against a committed snapshot.

``api_snapshot.json`` lists ``eprsim.__all__`` in order, each name paired
with the ``inspect.signature`` of its object, or null where the object is
not callable or has no signature (the exception types). A change that
alters the API regenerates the file with
``PYTHONPATH=src python tests/test_api.py`` and names every changed entry.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import eprsim

SNAPSHOT = Path(__file__).with_name("api_snapshot.json")


def current_api() -> list[list]:
    api = []
    for name in eprsim.__all__:
        obj = getattr(eprsim, name)
        try:
            sig = str(inspect.signature(obj)) if callable(obj) else None
        except ValueError:  # exception types derive from builtins
            sig = None
        api.append([name, sig])
    return api


def test_public_api_matches_snapshot():
    assert current_api() == json.loads(SNAPSHOT.read_text())


if __name__ == "__main__":
    rows = ",\n".join(" " + json.dumps(row) for row in current_api())
    SNAPSHOT.write_text(f"[\n{rows}\n]\n")
