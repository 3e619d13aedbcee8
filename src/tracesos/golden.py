"""Bundled transcriptions of published tables, used as comparison goldens.

These JSON files are frozen copies of printed objects (matrices, vectors,
parameter values, the linear system, the characteristic polynomial).
``cert84`` takes the published x values and the 11-equation system from
here; every other object is only compared against its file, leaf by leaf,
by ``checks.compare_golden`` (the ``reproduce`` table and the checks).
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

# beside this file, as package data (importlib.resources loads inspect on
# Python 3.12 and later)
_DIR = os.path.join(os.path.dirname(__file__), "golden")


@lru_cache(maxsize=None)
def load(name: str):
    with open(os.path.join(_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def available() -> list:
    return sorted(f[:-5] for f in os.listdir(_DIR) if f.endswith(".json"))
