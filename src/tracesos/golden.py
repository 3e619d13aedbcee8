"""Bundled transcriptions of published tables, used as comparison goldens.

These JSON files are frozen copies of printed objects (matrices, vectors,
parameter values, the linear system, the characteristic polynomial).
``cert84`` takes the published x values and the 11-equation system from
here; every other object is only compared against its file, leaf by leaf,
by ``checks.compare_golden`` (the ``reproduce`` table and the checks).
"""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources


@lru_cache(maxsize=None)
def load(name: str):
    path = resources.files("tracesos").joinpath("golden").joinpath(f"{name}.json")
    return json.loads(path.read_text())


def available() -> list:
    base = resources.files("tracesos").joinpath("golden")
    return sorted(p.name[:-5] for p in base.iterdir() if p.name.endswith(".json"))
