"""Layer spans recorded from outside the program.

install() replaces each public function listed in TARGETS, in every
apolarkit module namespace (and class) that holds it, by a wrapper that
records a span: function, start, end, parent span and op id.  Spans stay
in memory until the run ends.  A function's self time is its span time
minus the time covered by its child spans.
"""

import importlib
import json
import sys
import time
from contextlib import contextmanager

# (metric prefix, module, attribute path inside the module)
TARGETS = (
    ("cli.main", "apolarkit.cli", "main"),
    ("catalog.cubic_family", "apolarkit.catalog", "cubic_family"),
    ("catalog.random_power_sum", "apolarkit.catalog", "random_power_sum"),
    ("forms.multiply", "apolarkit.forms", "HomogeneousForm.multiply"),
    ("forms.evaluate", "apolarkit.forms", "HomogeneousForm.evaluate"),
    ("forms.power", "apolarkit.forms", "HomogeneousForm.power"),
    ("apolarity.catalecticant", "apolarkit.apolarity", "catalecticant"),
    ("apolarity.apolar_ideal_component", "apolarkit.apolarity",
     "apolar_ideal_component"),
    ("apolarity.ideal_of_points_component", "apolarkit.apolarity",
     "ideal_of_points_component"),
    ("apolarity.apolar_action", "apolarkit.apolarity", "apolar_action"),
    ("apolarity.is_apolar_pointset", "apolarkit.apolarity",
     "is_apolar_pointset"),
    ("apolarity.cube_span_contains", "apolarkit.apolarity",
     "cube_span_contains"),
    ("apolarity.min_partial_rank_scan", "apolarkit.apolarity",
     "min_partial_rank_scan"),
    ("resolutions.points_quotient_module", "apolarkit.resolutions",
     "points_quotient_module"),
    ("resolutions.apolar_quotient_module", "apolarkit.resolutions",
     "apolar_quotient_module"),
    ("resolutions.koszul_differential", "apolarkit.resolutions",
     "koszul_differential"),
    ("resolutions.graded_betti", "apolarkit.resolutions", "graded_betti"),
    ("resolutions.linear_syzygies", "apolarkit.resolutions",
     "linear_syzygies"),
    ("resolutions.m2_matrix", "apolarkit.resolutions", "m2_matrix"),
    ("resolutions.evaluate_at", "apolarkit.resolutions",
     "LinearFormMatrix.evaluate_at"),
    ("linalg.rank", "apolarkit.linalg", "ExactMatrix.rank"),
    ("linalg.kernel_basis", "apolarkit.linalg", "ExactMatrix.kernel_basis"),
    ("linalg.rref", "apolarkit.linalg", "ExactMatrix.rref"),
    ("modular.rank_mod_p", "apolarkit.modular", "rank_mod_p"),
    ("modular.det_mod_p", "apolarkit.modular", "det_mod_p"),
    ("modular.kernel_mod_p", "apolarkit.modular", "kernel_mod_p"),
    ("modular.lagrange_interpolate", "apolarkit.modular",
     "lagrange_interpolate"),
    ("modular.poly_gcd", "apolarkit.modular", "poly_gcd"),
    ("modular.gf2_det", "apolarkit.modular", "QuadraticTables.det"),
    ("modular.gf2_rank", "apolarkit.modular", "QuadraticTables.batch_rank"),
    ("rankloci.drop_degree_on_line", "apolarkit.rankloci",
     "drop_degree_on_line"),
    ("rankloci.plane_drop_points", "apolarkit.rankloci", "plane_drop_points"),
    ("rankloci.interpolate_drop_curve", "apolarkit.rankloci",
     "interpolate_drop_curve"),
    ("rankloci.singular_points_plane_curve", "apolarkit.rankloci",
     "singular_points_plane_curve"),
    ("rankloci.classify_singularity", "apolarkit.rankloci",
     "classify_singularity"),
)
NAMES = ("op",) + tuple(t[0] for t in TARGETS)  # index 0: the op itself

# counts kept at the same boundaries, beside calls and self time
COUNTS = {
    "cli.main.refusals": "count",
    "fields.projective_points.points": "count",
    "linalg.rank.entries": "count",
    "linalg.kernel_basis.entries": "count",
    "linalg.rref.entries": "count",
    "linalg.kernel_basis.out_max_bits": "bits",
    "rankloci.plane_drop_points.points": "count",
}
# minors tried per line degree or per curve, from the span tree
RATIOS = {
    "rankloci.drop_degree_on_line.dets_per_call":
        ("modular.det_mod_p", "rankloci.drop_degree_on_line"),
    "rankloci.interpolate_drop_curve.gf2_dets_per_call":
        ("modular.gf2_det", "rankloci.interpolate_drop_curve"),
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in NAMES[1:]:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units.update(COUNTS)
    for name in RATIOS:
        units[name] = "dets/call"
    return units


def _bits(value):
    if isinstance(value, tuple):
        return max(map(_bits, value), default=0)
    num = getattr(value, "numerator", value)
    den = getattr(value, "denominator", 1)
    return max(abs(int(num)).bit_length(), int(den).bit_length())


class Recorder:
    """Spans of one run: (function index, start, end, parent slot, op id)."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.active = [0] * len(NAMES)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.nested = dict.fromkeys(RATIOS, 0)
        self.op_id = None

    def _enter(self, index):
        slot = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1]
        self.stack.append(slot)
        self.active[index] += 1
        return slot, parent

    def _leave(self, index, slot, parent, start, end):
        self.stack.pop()
        self.active[index] -= 1
        self.spans[slot] = (index, start, end, parent, self.op_id)

    @contextmanager
    def op(self, op_id):
        self.op_id = op_id
        slot, parent = self._enter(0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._leave(0, slot, parent, start, time.perf_counter())
            self.op_id = None

    def wrap(self, index, fn):
        name = NAMES[index]
        before, after = _HOOKS.get(name, (None, None))
        nested = [(key, NAMES.index(outer)) for key, (inner, outer)
                  in RATIOS.items() if inner == name]
        enter, leave, perf = self._enter, self._leave, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            for key, outer in nested:
                if self.active[outer]:
                    self.nested[key] += 1
            slot, parent = enter(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(index, slot, parent, start, perf())
            if after is not None:
                after(self, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_points(self, gen_fn):
        def counting(*args, **kwargs):
            for point in gen_fn(*args, **kwargs):
                self.counts["fields.projective_points.points"] += 1
                yield point
        return counting

    def self_times(self):
        """Per span: duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self):
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for (index, _, _, _, _), own in zip(self.spans, self.self_times()):
            calls[index] += 1
            self_s[index] += own
        out = {}
        for index, name in enumerate(NAMES[1:], start=1):
            out[name + ".calls"] = calls[index]
            out[name + ".self_s"] = self_s[index]
        out.update(self.counts)
        for key, (_, outer) in RATIOS.items():
            outer_calls = calls[NAMES.index(outer)]
            out[key] = self.nested[key] / outer_calls if outer_calls else 0.0
        return out

    def check_self_times(self, tolerance=1e-6):
        """Errors if spans are not nested or self times miss an op's span."""
        errors = []
        roots = {}
        totals = {}
        for slot, ((index, start, end, parent, op_id), own) in enumerate(
                zip(self.spans, self.self_times())):
            totals[op_id] = totals.get(op_id, 0.0) + own
            if own < -tolerance:
                errors.append("span %d has negative self time" % slot)
            if parent < 0:
                roots[op_id] = end - start
                if index != 0:
                    errors.append("span %d (%s) outside any op" % (slot, NAMES[index]))
                continue
            p_start, p_end = self.spans[parent][1:3]
            if start < p_start or end > p_end:
                errors.append("span %d escapes its parent" % slot)
        for op_id, root in roots.items():
            if abs(totals[op_id] - root) > tolerance:
                errors.append("op %s: self times sum to %.9f, root span %.9f"
                              % (op_id, totals[op_id], root))
        return errors

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([NAMES[index], start, end, parent, op_id]))
                fh.write("\n")


def _count_entries(key):
    def before(recorder, args):
        matrix = args[0]
        recorder.counts[key] += matrix.nrows * matrix.ncols
    return before


def _kernel_bits(recorder, result):
    bits = max((_bits(v) for row in result.rows for v in row), default=0)
    key = "linalg.kernel_basis.out_max_bits"
    recorder.counts[key] = max(recorder.counts[key], bits)


def _refusal(recorder, result):
    if result == 3:
        recorder.counts["cli.main.refusals"] += 1


def _drop_points(recorder, result):
    recorder.counts["rankloci.plane_drop_points.points"] += len(result)


_HOOKS = {
    "cli.main": (None, _refusal),
    "linalg.rank": (_count_entries("linalg.rank.entries"), None),
    "linalg.kernel_basis": (_count_entries("linalg.kernel_basis.entries"),
                            _kernel_bits),
    "linalg.rref": (_count_entries("linalg.rref.entries"), None),
    "rankloci.plane_drop_points": (None, _drop_points),
}


def _resolve(module_name, path):
    """The function at path; LookupError if the program has none there."""
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part, None)
        if target is None:
            raise LookupError("span target %s.%s not found" % (module_name, path))
    return target


def _namespaces():
    """Every apolarkit module and class namespace that may hold a target."""
    for name, module in list(sys.modules.items()):
        if name == "apolarkit" or name.startswith("apolarkit."):
            yield module
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def _replace(original, replacement, patches):
    before = len(patches)
    for space in _namespaces():
        for attr, value in list(vars(space).items()):
            if value is original:
                patches.append((space, attr, value))
                setattr(space, attr, replacement)
    if len(patches) == before:
        raise LookupError("no namespace holds %r" % original)


def install(recorder):
    """Wrap every target; returns the undo list.

    Raises LookupError if a target is missing, so a renamed function fails
    the traced run instead of reporting zero calls and zero self time.
    """
    patches = []
    for index, (_, module_name, path) in enumerate(TARGETS, start=1):
        fn = _resolve(module_name, path)
        _replace(fn, recorder.wrap(index, fn), patches)
    gen_fn = _resolve("apolarkit.fields", "projective_points")
    _replace(gen_fn, recorder.count_points(gen_fn), patches)
    return patches


def uninstall(patches):
    for space, attr, value in reversed(patches):
        setattr(space, attr, value)
