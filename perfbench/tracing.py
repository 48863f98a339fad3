"""Timing wrappers around the public functions of each gammagroups module.

A Tracer patches every listed function in every module that binds it, so a
call through `catalog.irrep_census` is timed as well as one through
`reps.irrep_census`. Each wrapped call pushes a frame; on exit the call's
duration minus the time its wrapped children took is added to its layer's
self time. Calls of the layers in RECORDED also leave a span (name, start,
end, parent span, operation id) in memory; the hot layers (matrix products,
keys, sub-closures, cached structure queries) are only counted and timed,
because a single search makes hundreds of thousands of them.

`MatrixGroup.cayley()` is called about 200k times per penta8 search, almost
always as a cache hit, so only the first call on each group object is
timed, and only if the group has no table yet: that call is the build.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# (layer, module, attribute path) for every function that gets a wrapper.
# Several functions may share a layer; the layer then sums them.
LAYERS = (
    ("exact.matmul", "gammagroups.exact", "ExactMatrix.__mul__"),
    ("exact.key", "gammagroups.exact", "ExactMatrix.key"),
    ("exact.parse", "gammagroups.exact", "parse_matrix"),
    ("groups.closure", "gammagroups.groups", "generate_closure"),
    ("groups.cayley", "gammagroups.groups", "MatrixGroup.cayley"),
    ("groups.subclosure", "gammagroups.groups", "MatrixGroup.closure_indices"),
    ("groups.iso", "gammagroups.groups", "MatrixGroup.isomorphism_map"),
    ("groups.as_group", "gammagroups.groups", "Subgroup.as_group"),
    ("groups.subgroups", "gammagroups.groups", "MatrixGroup.subgroups_of_order"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.conjugacy_classes"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.center"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.derived_subgroup"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.frattini_subgroup"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.minimal_generator_count"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.abelian_invariants"),
    ("groups.structure", "gammagroups.groups", "MatrixGroup.fingerprint"),
    ("reps.census", "gammagroups.reps", "irrep_census"),
    ("reps.indicator", "gammagroups.reps", "structural_invariant"),
    ("reps.indicator", "gammagroups.reps", "irreducibility_norm"),
    ("reps.form", "gammagroups.reps", "invariant_bilinear_form"),
    ("reps.weights", "gammagroups.reps", "spin_weights"),
    ("brackets.match", "gammagroups.brackets", "find_component_match"),
    ("brackets.verify", "gammagroups.brackets", "verify_bracket_table"),
    ("brackets.verify", "gammagroups.brackets", "verify_relations"),
    ("catalog.entry", "gammagroups.catalog", "catalog_entry"),
    ("catalog.profile", "gammagroups.catalog", "compute_profile"),
    ("catalog.decompose", "gammagroups.catalog", "decompose_index_two"),
    ("catalog.pool", "gammagroups.catalog", "pool_group"),
    ("catalog.search", "gammagroups.catalog", "find_gamma_models"),
    ("catalog.extensions", "gammagroups.catalog", "enumerate_extensions"),
    ("claims.run", "gammagroups.claims", "run_claims"),
    ("cli.render", "gammagroups.cli", "render_json"),
    ("cli.render", "gammagroups.cli", "render_markdown"),
    ("cli.main", "gammagroups.cli", "main"),
)

# Layers whose calls also leave a span record; the rest are too frequent.
RECORDED = frozenset({
    "exact.parse", "groups.closure", "groups.cayley", "groups.iso",
    "groups.subgroups", "reps.census", "reps.indicator", "reps.form",
    "reps.weights", "brackets.match", "brackets.verify", "catalog.profile",
    "catalog.decompose", "catalog.pool", "catalog.search",
    "catalog.extensions", "claims.run", "cli.render", "cli.main",
})


class Tracer:
    """Per-process span store and per-layer counters for one operation."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.cayley_cells = 0
        self.iso_found = 0
        self.search_hits = 0
        self.search_closures = 0
        self._search_depth = 0
        # Each frame is [time covered by wrapped children, span id for them].
        self._stack: list[list] = [[0.0, None]]

    def _wrap(self, layer: str, fn):
        record = layer in RECORDED
        stack = self._stack
        count = self.count
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        spans = self.spans
        # The CPU clock stops while the benchmark pauses the process to time
        # its calibration loop, so those pauses fall in no span.
        clock = time.process_time

        def call(args, kwargs):
            parent = stack[-1]
            span_id = len(spans) if record else parent[1]
            if record:
                spans.append(None)  # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                count[layer] += 1
                self_s[layer] += duration - frame[0]
                inclusive_s[layer] += duration
                parent[0] += duration
                if record:
                    spans[span_id] = (layer, start, end, parent[1], self.op_id)

        if layer == "groups.cayley":
            seen = weakref.WeakSet()

            def wrapper(group):
                # Only the first call on a group object can build its table,
                # and not even that one when the table came with the group.
                if group in seen:
                    return fn(group)
                seen.add(group)
                if getattr(group, "_cayley", None) is not None:
                    return fn(group)
                self.cayley_cells += group.order * group.order
                return call((group,), {})
        elif layer == "groups.subclosure":
            def wrapper(*args, **kwargs):
                if self._search_depth:
                    self.search_closures += 1
                return call(args, kwargs)
        elif layer == "groups.iso":
            def wrapper(*args, **kwargs):
                result = call(args, kwargs)
                self.iso_found += result is not None
                return result
        elif layer == "catalog.search":
            def wrapper(*args, **kwargs):
                self._search_depth += 1
                try:
                    result = call(args, kwargs)
                finally:
                    self._search_depth -= 1
                self.search_hits += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return call(args, kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every LAYERS function wherever a gammagroups module binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name.split(".")[0] == "gammagroups" and m is not None]
        for layer, module_name, path in LAYERS:
            owner = sys.modules[module_name]
            *class_path, attr = path.split(".")
            for name in class_path:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if class_path else getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            setattr(owner, attr, wrapper)
            if class_path:
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def summary(self) -> dict:
        return {
            "op_id": self.op_id,
            "count": dict(self.count),
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "cayley_cells": self.cayley_cells,
            "iso_found": self.iso_found,
            "search_hits": self.search_hits,
            "search_closures": self.search_closures,
            "spans": [list(span) for span in self.spans if span is not None],
        }
