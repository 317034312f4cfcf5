"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds the
wrapper under the same name in every loaded ``sweedler`` module that holds
the original, so calls made inside the program are recorded too.  Spans stay
in memory (name, start, end, parent span, job id, extra) and are written out
as JSON lines at the end of the run.  Self time is a span's duration minus
the durations of its direct children (children of one span never overlap: the
program is single-threaded).
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# module -> public functions whose calls become spans
TRACED = {
    "linalg": ["compose", "kron", "rref", "invert", "solve_matrix_equations",
               "matrix_equation_kernel"],
    "structures": ["validate_algebra", "validate_coalgebra", "validate_bialgebra",
                   "validate_hopf", "find_antipode", "find_opantipode", "fusion_operators",
                   "algebra_morphisms", "general_linear_group"],
    "measurings": ["enumerate_measurings", "conjugate_measuring", "intertwiners",
                   "validate_measuring"],
    "reconstruction": ["reconstruct"],
    "tambara": ["correspondence_check", "tambara_modules"],
    "graded": ["validate_graded"],
    "documents": ["parse_document", "parse_measuring_document", "structure_to_dict",
                  "measuring_to_dict", "canonical_json"],
    "cli": ["main"],
}

# spans that report under a shared layer name
GROUPS = {
    "structures.validate_algebra": "structures.validate",
    "structures.validate_coalgebra": "structures.validate",
    "structures.validate_bialgebra": "structures.validate",
    "structures.validate_hopf": "structures.validate",
    "documents.parse_document": "documents.parse",
    "documents.parse_measuring_document": "documents.parse",
    "documents.structure_to_dict": "documents.serialize",
    "documents.measuring_to_dict": "documents.serialize",
    "documents.canonical_json": "documents.serialize",
}


def _nonzeros(m) -> int:
    # count() skips the equality test for the very object it is given, and the
    # program fills a result's zeros with one shared zero object: find that one
    zero = next((x for x in m.entries if not x), None)
    return len(m.entries) - (m.entries.count(zero) if zero is not None else 0)


def _extra(name: str, args, result):
    """What a span records beyond its times: shapes, counts and sizes."""
    if name in ("linalg.compose", "linalg.kron"):
        return [result.cod * result.dom, _nonzeros(result)]
    if name == "structures.algebra_morphisms":
        return len(result)
    if name == "reconstruction.reconstruct":
        return result.d.dim
    if name in ("documents.parse_document", "documents.parse_measuring_document"):
        return len(args[0])
    if name == "documents.canonical_json":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.job = None
        self.on = False

    def _wrap(self, name: str, fn):
        group = GROUPS.get(name, name)
        self.depth.setdefault(group, 0)

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            nested = self.depth[group] > 0
            self.spans.append(None)
            self.stack.append(idx)
            self.depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.depth[group] -= 1
                self.stack.pop()
                self.spans[idx] = [name, start, end, parent, self.job, nested, None]
            self.spans[idx][6] = _extra(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "sweedler" or n.startswith("sweedler.")]
        for short, names in TRACED.items():
            module = sys.modules[f"sweedler.{short}"]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent, job, nested, extra) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "job": job, "extra": extra},
                                     separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans


def layer_metrics(spans: list, offset: int) -> dict:
    """Per-layer metrics of one round; ``offset`` is the index of its first span."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= offset:
            child[s[3] - offset] += s[2] - s[1]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}      # outermost spans only, so nesting is not counted twice
    self_s: dict[str, float] = {}
    extra: dict[str, list] = {}
    for i, (name, start, end, _parent, _job, nested, ex) in enumerate(spans):
        dur = end - start
        for key in {name, GROUPS.get(name, name)}:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + dur - child[i]
            if not nested:
                total[key] = total.get(key, 0.0) + dur
        if ex is not None:
            extra.setdefault(GROUPS.get(name, name), []).append(ex)

    def pairs(key):
        rows = extra.get(key, [])
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    compose_entries, compose_nonzeros = pairs("linalg.compose")
    kron_entries, _ = pairs("linalg.kron")
    morphisms_found = sum(extra.get("structures.algebra_morphisms", []))
    out = {
        "linalg.compose.calls": calls.get("linalg.compose", 0),
        "linalg.compose.s": total.get("linalg.compose", 0.0),
        "linalg.compose.entries": compose_entries,
        "linalg.compose.density": compose_nonzeros / compose_entries if compose_entries else 0.0,
        "linalg.kron.calls": calls.get("linalg.kron", 0),
        "linalg.kron.s": total.get("linalg.kron", 0.0),
        "linalg.kron.entries": kron_entries,
    }
    for name in ("linalg.rref", "linalg.invert", "structures.general_linear_group",
                 "measurings.conjugate_measuring", "measurings.intertwiners",
                 "measurings.validate_measuring", "graded.validate_graded"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("linalg.solve_matrix_equations", "linalg.matrix_equation_kernel",
                 "structures.validate", "structures.algebra_morphisms",
                 "tambara.tambara_modules", "documents.serialize"):
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("structures.find_antipode", "structures.find_opantipode",
                 "structures.fusion_operators", "measurings.enumerate_measurings",
                 "reconstruction.reconstruct", "tambara.correspondence_check",
                 "documents.parse", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["structures.validate_algebra.calls"] = calls.get("structures.validate_algebra", 0)
    out["structures.validate_bialgebra.calls"] = calls.get("structures.validate_bialgebra", 0)
    out["structures.algebra_morphisms.found"] = morphisms_found
    out["measurings.conjugations_per_morphism"] = (
        calls.get("measurings.conjugate_measuring", 0) / morphisms_found
        if morphisms_found else 0.0)
    out["reconstruction.generated_dim"] = sum(extra.get("reconstruction.reconstruct", []))
    out["documents.parse.calls"] = calls.get("documents.parse", 0)
    out["documents.parse.bytes_in"] = sum(extra.get("documents.parse", []))
    out["documents.serialize.bytes_out"] = sum(extra.get("documents.serialize", []))
    return out


def median_metrics(rounds: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
