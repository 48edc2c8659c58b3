"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public masseyq functions from outside the package:
every module attribute bound to a wrapped function is rebound to the
wrapper, and the listed methods are replaced on their class, so calls
made inside the package go through the wrappers too.  Nothing in
masseyq is edited.

Each call of a wrapped function becomes a frame on a stack.  When the
frame closes, its duration minus the durations of the wrapped calls it
made is its self time, charged to the function and to its module.
Calls of most functions are also kept as span records (name, start,
end, duration, parent, request id, exception); the hot ones listed in
COUNTED run ~10^5 times per request, so they are timed and counted but
leave no record.  Spans stay in memory and are written out at the end.

Time the recorder spends computing input identities is excluded from
every open frame, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

# (module, attribute path) of every wrapped callable; a dotted path names
# a method on a class of that module.  The metric prefix is
# "<module>.<last path component>".
SPANNED = (
    ("cli", "main"),
    ("report", "Report.to_json"),
    ("fileformat", "resolve_model_spec"),
    ("fileformat", "resolve_datum_spec"),
    ("fileformat", "load_family"),
    ("fileformat", "tautological_from_parts"),
    ("models", "builtin_model"),
    ("models", "builtin_datum"),
    ("models", "builtin_family"),
    ("cdga", "build_free_cdga"),
    ("cdga", "build_table_algebra"),
    ("cdga", "recap"),
    ("cdga", "tensor_polynomial_generator"),
    ("cdga", "validate_algebra"),
    ("cdga", "validate_morphism"),
    ("linalg", "rref"),
    ("linalg", "solve"),
    ("cohomology", "CohomologyRing.class_dim"),
    ("cohomology", "CohomologyRing.lift"),
    ("cohomology", "CohomologyRing.project"),
    ("cohomology", "cup"),
    ("cohomology", "triple_massey"),
    ("cohomology", "check_scaling_law"),
    ("transfer", "build_setup"),
    ("transfer", "euler_class"),
    ("transfer", "euler_class_from_polynomial"),
    ("transfer", "check_euler_scaled_massey"),
    ("transfer", "validate_transfer_datum"),
    ("transfer", "tautological_datum"),
    ("transfer", "check_gysin_transfer"),
    ("transfer", "run_transfer_pipeline"),
    ("transfer", "scan_families"),
)
COUNTED = (("cdga", "CochainAlgebra.multiply"),)

MODULES = ("cli", "report", "fileformat", "models", "cdga", "linalg", "cohomology", "transfer")


def metric_name(module: str, path: str) -> str:
    return f"{module}.{path.split('.')[-1]}"


def algebra_identity(algebra) -> tuple:
    """Structure of an algebra read through its public interface.

    Cap, basis labels and the differential of every basis element below
    the cap; two algebras with equal identities present the same complex.
    """
    labels = tuple(algebra.basis_labels(n) for n in range(algebra.cap + 1))
    diffs = tuple(
        algebra.differential(algebra.basis_element(n, i)).coords
        for n in range(algebra.cap)
        for i in range(algebra.dim(n))
    )
    return (algebra.cap, labels, diffs)


class Recorder:
    """Collects frames, spans and per-function statistics for one run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack: list[list] = []  # [start, child_s, excluded_s, span index]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.module_self_s: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.rref_entries = 0
        self.rref_max_entries = 0
        self.request = -1
        self._seen: dict[str, set] = defaultdict(set)
        self._identities: dict[int, tuple] = {}
        self._pinned: list = []
        self._patches: list[tuple] = []

    # -- request boundaries ------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request = request_id
        self._seen.clear()
        self._identities.clear()
        self._pinned.clear()

    # -- input identity ------------------------------------------------------

    def _identity(self, algebra) -> tuple:
        # Pinning the algebra keeps its id from being reused within the
        # request, so the cache cannot confuse two algebras.
        key = id(algebra)
        if key not in self._identities:
            self._identities[key] = algebra_identity(algebra)
            self._pinned.append(algebra)
        return self._identities[key]

    def _note(self, name: str, key_of: Callable, args, kwargs) -> None:
        start = time.perf_counter()
        key = key_of(self, args, kwargs)
        if key not in self._seen[name]:
            self._seen[name].add(key)
            self.distinct[name] += 1
        spent = time.perf_counter() - start
        for frame in self.stack:
            frame[2] += spent

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, record: bool, key_of: Optional[Callable]):
        module = name.split(".")[0]
        stack, spans = self.stack, self.spans
        calls, total_s = self.calls, self.total_s
        module_self_s, depth = self.module_self_s, self.depth
        clock = time.perf_counter
        is_rref = name == "linalg.rref"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_of is not None:
                self._note(name, key_of, args, kwargs)
            if is_rref:
                entries = args[0].rows * args[0].cols
                self.rref_entries += entries
                self.rref_max_entries = max(self.rref_max_entries, entries)
            index = -1
            if record:
                index = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, 0.0, index]
            parent = stack[-1] if stack else None
            stack.append(frame)
            depth[name] += 1
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - frame[0] - frame[2]
                own = duration - frame[1]
                calls[name] += 1
                module_self_s[module] += own
                if depth[name] == 0:
                    total_s[name] += duration
                if parent is not None:
                    parent[1] += duration
                if record:
                    spans[index] = (
                        name,
                        frame[0] - self.t0,
                        end - self.t0,
                        duration,
                        parent[3] if parent is not None else -1,
                        self.request,
                        error,
                    )

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind every module attribute bound to it."""
        keys = {
            "transfer.build_setup": _setup_key,
            "cohomology.triple_massey": _massey_key,
        }
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "masseyq" or name.startswith("masseyq.")
        }
        for group, record in ((SPANNED, True), (COUNTED, False)):
            for module, path in group:
                name = metric_name(module, path)
                owner = package[f"masseyq.{module}"]
                parts = path.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
                wrapper = self._wrap(name, original, record, keys.get(name))
                if len(parts) > 1:
                    self._patches.append((owner, parts[-1], original))
                    setattr(owner, parts[-1], wrapper)
                    continue
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def wasted_setup_s(self) -> float:
        """build_setup time inside Euler checks that ended in PremiseError."""
        wasted = 0.0
        for span in self.spans:
            if span[0] != "transfer.build_setup":
                continue
            parent = span[4]
            while parent >= 0 and self.spans[parent][0] != "transfer.check_euler_scaled_massey":
                parent = self.spans[parent][4]
            if parent >= 0 and self.spans[parent][6] == "PremiseError":
                wasted += span[3]
        return wasted

    def metrics(self) -> dict[str, float]:
        def ratio(name):
            return self.distinct[name] / self.calls[name] if self.calls[name] else 0.0

        out = {
            "cdga.validate_algebra.total_s": self.total_s["cdga.validate_algebra"],
            "cdga.validate_morphism.total_s": self.total_s["cdga.validate_morphism"],
            "cdga.tensor_polynomial_generator.total_s": self.total_s["cdga.tensor_polynomial_generator"],
            "cdga.multiply.calls": self.calls["cdga.multiply"],
            "cdga.build_free_cdga.total_s": self.total_s["cdga.build_free_cdga"],
            "transfer.build_setup.calls": self.calls["transfer.build_setup"],
            "transfer.build_setup.distinct_ratio": ratio("transfer.build_setup"),
            "transfer.build_setup.total_s": self.total_s["transfer.build_setup"],
            "transfer.wasted_setup_s": self.wasted_setup_s(),
            "transfer.validate_transfer_datum.total_s": self.total_s["transfer.validate_transfer_datum"],
            "transfer.check_gysin_transfer.total_s": self.total_s["transfer.check_gysin_transfer"],
            "cohomology.triple_massey.calls": self.calls["cohomology.triple_massey"],
            "cohomology.triple_massey.distinct_ratio": ratio("cohomology.triple_massey"),
            "cohomology.triple_massey.total_s": self.total_s["cohomology.triple_massey"],
            "cohomology.cup.calls": self.calls["cohomology.cup"],
            "cohomology.lift.calls": self.calls["cohomology.lift"],
            "cohomology.project.calls": self.calls["cohomology.project"],
            "linalg.rref.calls": self.calls["linalg.rref"],
            "linalg.rref.total_s": self.total_s["linalg.rref"],
            "linalg.rref.entries": self.rref_entries,
            "linalg.rref.max_entries": self.rref_max_entries,
            "linalg.solve.calls": self.calls["linalg.solve"],
            "report.to_json.total_s": self.total_s["report.to_json"],
        }
        for module in MODULES:
            out[f"{module}.self_s"] = self.module_self_s[module]
        return out

    def write_spans(self, path: str) -> None:
        fields = ("name", "start", "end", "duration", "parent", "request", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _setup_key(rec: Recorder, args, kwargs) -> tuple:
    """build_setup(base, cap=None, hname="h"): base, cap and h name."""
    base = args[0] if args else kwargs["base"]
    cap = args[1] if len(args) > 1 else kwargs.get("cap")
    hname = args[2] if len(args) > 2 else kwargs.get("hname", "h")
    return (rec._identity(base), base.cap if cap is None else cap, hname)


def _massey_key(rec: Recorder, args, kwargs) -> tuple:
    """triple_massey(a, b, c): the ring and the three class coordinates."""
    classes = list(args) + [kwargs[k] for k in ("a", "b", "c") if k in kwargs]
    ring = classes[0].ring
    return (rec._identity(ring.algebra),) + tuple(
        (cls.degree, cls.coords) for cls in classes
    )
