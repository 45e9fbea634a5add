"""Per-layer tracing from outside the program.

A `Tracer` replaces chosen public functions of flatact by timing wrappers,
at every name a caller looks them up by: a function imported by name into
another module (as `cohomology` imports `hermite_normal_form`) is replaced
there too.  Only functions called at most about 10^4 times a run are
wrapped, so the traced run stays close to the untraced one; element-level
methods such as `Permutation.__mul__` show up in their caller's self time.

Each call records a span (name, start, end, parent), kept in memory and
written out when the run ends.  Self time is a span's duration minus the
durations of its wrapped children.
"""

import functools
import json
import statistics
import sys
import time
from collections import defaultdict


def _nodes(counts, args, result):
    counts["screening.epi.nodes"] += result.nodes


def _cosets(counts, args, result):
    counts["fpgroups.cosets"] += result.index


def _classes(counts, args, result):
    counts["fpgroups.low_index.classes"] += len(result)


def _bar_entries(counts, args, result):
    # computed, not measured: the dense (|Q|-1)^3 n x (|Q|-1)^2 n matrix
    module = args[0]
    q, n = module.group.order(), module.rank
    counts["cohomology.bar.entries"] += (q - 1) ** 3 * n * (q - 1) ** 2 * n


def _max_entries(counts, args, result):
    key = "zlinalg.hermite_normal_form.max_entries"
    counts[key] = max(counts.get(key, 0), args[0].rows * args[0].cols)


# (module, attribute, span name, counter hook)
TARGETS = [
    ("screening", "screen_dimensions", "screening.screen_dimensions", None),
    ("screening", "epimorphism_search", "screening.epimorphism_search", _nodes),
    ("groups", "PermGroup.__init__", "groups.PermGroup.init", None),
    ("groups", "PermGroup.elements", "groups.PermGroup.elements", None),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", None),
    ("fpgroups", "todd_coxeter", "fpgroups.todd_coxeter", _cosets),
    ("fpgroups", "low_index_subgroups", "fpgroups.low_index_subgroups", _classes),
    ("cohomology", "h2", "cohomology.h2", _bar_entries),
    ("cohomology", "CohomologyGroup.class_of", "cohomology.CohomologyGroup.class_of", None),
    ("cohomology", "torsion_free_check", "cohomology.torsion_free_check", None),
    ("cohomology", "torsion_free_check_by_restriction",
     "cohomology.torsion_free_check_by_restriction", None),
    ("cohomology", "extension_class", "cohomology.extension_class", None),
    ("zlinalg", "hermite_normal_form", "zlinalg.hermite_normal_form", _max_entries),
    ("zlinalg", "kernel_basis_of_matrix", "zlinalg.kernel_basis_of_matrix", None),
    ("zlinalg", "smith_normal_form", "zlinalg.smith_normal_form", None),
    ("zlinalg", "solve_integer", "zlinalg.solve_integer", None),
    ("zlinalg", "cokernel", "zlinalg.cokernel", None),
    ("certificates", "verify_torus_certificate", "certificates.verify_torus_certificate", None),
    ("certificates", "verify_flat_certificate", "certificates.verify_flat_certificate", None),
    ("certificates", "jordan_witness", "certificates.jordan_witness", None),
]

# The per-layer metrics a traced run prints, with their units.  `.s` is
# total time, `.self_s` self time and `.calls` the call count, all per
# traced round.
PER_LAYER = [
    ("screening.screen_dimensions.s", "s"),
    ("screening.epimorphism_search.s", "s"),
    ("screening.epimorphism_search.self_s", "s"),
    ("screening.epimorphism_search.calls", "count"),
    ("screening.epi.nodes", "count"),
    ("screening.epi.nodes_per_s", "1/s"),
    ("groups.PermGroup.init.s", "s"),
    ("groups.PermGroup.init.calls", "count"),
    ("groups.PermGroup.elements.s", "s"),
    ("groups.conjugacy_classes.s", "s"),
    ("fpgroups.todd_coxeter.s", "s"),
    ("fpgroups.todd_coxeter.calls", "count"),
    ("fpgroups.cosets", "count"),
    ("fpgroups.cosets_per_s", "1/s"),
    ("fpgroups.low_index_subgroups.s", "s"),
    ("fpgroups.low_index.classes", "count"),
    ("cohomology.h2.s", "s"),
    ("cohomology.h2.self_s", "s"),
    ("cohomology.h2.calls", "count"),
    ("cohomology.bar.entries", "count"),
    ("cohomology.CohomologyGroup.class_of.s", "s"),
    ("cohomology.CohomologyGroup.class_of.calls", "count"),
    ("cohomology.torsion_free_check.s", "s"),
    ("cohomology.torsion_free_check_by_restriction.s", "s"),
    ("cohomology.extension_class.s", "s"),
    ("zlinalg.hermite_normal_form.s", "s"),
    ("zlinalg.hermite_normal_form.calls", "count"),
    ("zlinalg.hermite_normal_form.max_entries", "count"),
    ("zlinalg.kernel_basis_of_matrix.s", "s"),
    ("zlinalg.smith_normal_form.s", "s"),
    ("zlinalg.smith_normal_form.calls", "count"),
    ("zlinalg.solve_integer.s", "s"),
    ("zlinalg.solve_integer.calls", "count"),
    ("zlinalg.cokernel.s", "s"),
    ("certificates.verify_torus_certificate.s", "s"),
    ("certificates.verify_flat_certificate.s", "s"),
    ("certificates.jordan_witness.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("fpgroups.engine_compiled", "flag"),
]


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent span index or None]
        self.stats = {}      # name -> [total s, self s, calls]
        self.counts = defaultdict(int)
        self._stack = []     # [span index, time of wrapped children]
        self._saved = []     # (owner, attribute, original) to restore

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            frame = [idx, 0.0]
            start = time.perf_counter()
            tracer.spans.append([name, start, None,
                                 tracer._stack[-1][0] if tracer._stack else None])
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx][2] = end
                dur = end - start
                st = tracer.stats.setdefault(name, [0.0, 0.0, 0])
                st[0] += dur
                st[1] += dur - frame[1]
                st[2] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += dur
            if hook is not None:
                hook(tracer.counts, args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "flatact" or n.startswith("flatact."))]
        for mod_name, attr, name, hook in TARGETS:
            owner = sys.modules["flatact." + mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    def metrics(self, rounds, traced_walls, untraced_walls, engine):
        """The PER_LAYER metrics, per traced round."""
        values = {}
        for _, _, name, _ in TARGETS:
            total, self_s, calls = self.stats.get(name, (0.0, 0.0, 0))
            values[name + ".s"] = total / rounds
            values[name + ".self_s"] = self_s / rounds
            values[name + ".calls"] = calls / rounds
        for key, val in self.counts.items():
            values[key] = val if key.endswith("max_entries") else val / rounds
        for key in ("screening.epi.nodes", "fpgroups.cosets", "fpgroups.low_index.classes",
                    "cohomology.bar.entries", "zlinalg.hermite_normal_form.max_entries"):
            values.setdefault(key, 0)
        epi_s = values["screening.epimorphism_search.s"]
        tc_s = values["fpgroups.todd_coxeter.s"]
        values["screening.epi.nodes_per_s"] = values["screening.epi.nodes"] / epi_s if epi_s else 0
        values["fpgroups.cosets_per_s"] = values["fpgroups.cosets"] / tc_s if tc_s else 0
        traced = statistics.median(traced_walls)
        untraced = statistics.median(untraced_walls)
        values["trace.wall_s"] = traced
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_s"] = traced - untraced
        values["fpgroups.engine_compiled"] = int(engine == "compiled")
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump(dict(meta, span_fields=["name", "start", "end", "parent"],
                           spans=self.spans), fh)
