"""Spans around calls into tracesos, recorded from outside the program.

A module that did ``from .x import f`` holds its own reference to ``f``,
so a wrapper installed only on the defining module misses those calls.
``Tracer.installed`` therefore replaces every binding of each traced
function in every loaded ``tracesos`` module (found by identity in
``vars(module)``) and puts the originals back on exit.

Spans stay in memory as plain dicts -- name, start, end, parent id and
pass id, plus optional counts -- and are written out by the caller when
the pass ends.  Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pkgutil
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def _terms_out(args, kwargs, result) -> dict:
    return {"terms_out": len(result.terms)}


def _necklace_counts(args, kwargs, result) -> dict:
    from tracesos.necklace import planned_visits

    p = args[0] if args else kwargs["p"]
    return {"terms_out": len(result.terms),
            "visits": planned_visits(p, skip_zero=p.diagonal_a)}


def _charpoly_counts(args, kwargs, result) -> dict:
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in result)
    return {"dim_max": len(result) - 1, "coeff_bits_max": bits}


def _build_sdp_counts(args, kwargs, result) -> dict:
    return {"constraints": len(result.constraints)}


def _path_arg(args, kwargs, pos: int, key: str) -> str:
    return args[pos] if len(args) > pos else kwargs[key]


def _export_counts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_path_arg(args, kwargs, 1, "path"))}


def _import_counts(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_path_arg(args, kwargs, 0, "path"))}


def _verify_counts(args, kwargs, result) -> dict:
    return {"accepted": int(result.accepted), "rejected": int(not result.accepted)}


CHECKS = (
    "check_dual_oracle", "check_counterexample", "check_identity_42",
    "check_audit_42", "check_entry_sums", "check_identity_84",
    "check_param_system", "check_psd_suite", "check_square_formula",
    "check_sdp_roundtrip", "check_properties", "q3_psd_report",
)

# (module, function) -> counter probe run on the result, or None.
TARGETS: Dict[Tuple[str, str], Optional[Callable]] = {
    ("necklace", "trace_coeff_necklace"): _necklace_counts,
    ("necklace", "trace_coeff_matrix"): _terms_out,
    ("poly", "quadratic_form"): _terms_out,
    ("cert84", "build_certificate84"): None,
    ("cert84", "assemble_sos_84"): None,
    ("cert84", "derive_param_system"): None,
    ("cert42", "accounting_audit"): None,
    ("cert42", "assemble_sos_42"): None,
    ("psdcert", "charpoly"): _charpoly_counts,
    ("psdcert", "verify_charpoly_signs"): None,
    ("psdcert", "verify_schur"): None,
    ("psdcert", "verify_gram_factor"): None,
    ("psdcert", "verify_tensor_psd"): None,
    ("sdpio", "build_sdp"): _build_sdp_counts,
    ("sdpio", "export_sdpa"): _export_counts,
    ("sdpio", "import_sdpa"): _import_counts,
    ("sdpio", "reduce_to_parameters"): None,
    ("sdpio", "rationalize_and_verify"): _verify_counts,
    **{("checks", name): None for name in CHECKS},
}


def package_modules(package: str = "tracesos") -> List:
    """Import every submodule of the package and return them all."""
    root = importlib.import_module(package)
    for info in pkgutil.iter_modules(root.__path__):
        importlib.import_module(f"{package}.{info.name}")
    return [mod for name, mod in sorted(sys.modules.items())
            if name == package or name.startswith(package + ".")]


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self, pass_id: int = 0, clock: Callable[[], float] = time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.spans: List[dict] = []
        self._stack: List[int] = []

    def span(self, name: str, start: float, end: float,
             parent: Optional[int] = None, counts: Optional[dict] = None) -> int:
        """Append a finished span and return its id."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "pass": self.pass_id,
                           "counts": counts or {}})
        return sid

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        sid = self.span(name, self.clock(), 0.0, parent)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, probe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if probe is not None:
                self.spans[sid]["counts"] = probe(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self, targets: Dict[Tuple[str, str], Optional[Callable]] = TARGETS,
                  package: str = "tracesos"):
        """Wrap every binding of each target; restore the originals on exit."""
        modules = package_modules(package)
        patched: List[Tuple[object, str, Callable]] = []
        try:
            for (modname, fname), probe in targets.items():
                owner = sys.modules.get(f"{package}.{modname}")
                original = getattr(owner, fname, None) if owner else None
                if original is None:
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", original, probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Self time of each span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def layer_totals(spans: Sequence[dict]) -> Dict[str, dict]:
    """Per span name: calls, summed self time, summed total time of the
    outermost spans of that name (recursion is not double-counted), and
    summed counts."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: Dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0, "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += selfs[s["id"]]
        parent, nested = s["parent"], False
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                nested = True
                break
            parent = by_id[parent]["parent"]
        if not nested:
            agg["total_s"] += s["end"] - s["start"]
        for key, value in s["counts"].items():
            if key.endswith("_max"):
                agg["counts"][key] = max(agg["counts"].get(key, 0), value)
            else:
                agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out
