"""Per-layer tracing of rdpk3, installed from outside the package.

Each traced entry point is replaced by a wrapper in every rdpk3 module
namespace and class that holds it, since modules bind names at import
(``from .witt import witt_sub``, ``reduce as reduce_class``).  Coarse
entry points record a span (name, start, end, parent); the per-element
hot methods only add to aggregate counters, so memory stays bounded.
Self time is a call's time minus the time of the traced calls inside it.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path, metric stem, self-time stem, record a span).
# The self-time stem groups the four Witt operations into one figure.
TARGETS = (
    ("ffpoly", "MultiPoly.evaluate", "ffpoly.evaluate", "ffpoly.evaluate", False),
    ("ffpoly", "FiniteField.evaluate_poly", "ffpoly.ff_evaluate", "ffpoly.ff_evaluate", False),
    ("witt", "witt_add", "witt.add", "witt.ops", False),
    ("witt", "witt_mul", "witt.mul", "witt.ops", False),
    ("witt", "witt_neg", "witt.neg", "witt.ops", False),
    ("witt", "witt_sub", "witt.sub", "witt.ops", False),
    ("witt", "build_witt_table", "witt.tables", "witt.tables", True),
    ("chartring", "ChartElem.__mul__", "chartring.mul", "chartring.mul", False),
    ("chartring", "RingMap.apply", "chartring.ringmap_apply", "chartring.ringmap_apply", False),
    ("chartring", "rdp_chart", "chartring.rdp_chart", "chartring.rdp_chart", False),
    ("localcoh", "reduce", "localcoh.reduce", "localcoh.reduce", False),
    ("localcoh", "frobenius_class", "localcoh.frobenius_class", "localcoh.frobenius_class", False),
    ("localcoh", "pullback_class", "localcoh.pullback_class", "localcoh.pullback_class", False),
    ("height", "count_points", "height.count_points", "height.count_points", True),
    ("height", "height_from_counts", "height.height_from_counts", "height.height_from_counts", True),
    ("lattice", "unimodular_overlattice_exists", "lattice.overlattice", "lattice.overlattice", True),
    ("lattice", "glue", "lattice.glue", "lattice.glue", True),
    ("lattice", "disc_group", "lattice.disc_group", "lattice.disc_group", False),
    ("cli", "main", "cli.main", "cli.main", True),
)

# build_witt_table is looked up on every Witt operation inside witt
# itself; only calls from outside that module can derive a table.
HOME_EXCLUDED = {"witt.tables"}

LAYERS = ("ffpoly", "witt", "chartring", "localcoh", "height", "lattice", "reproduce", "cli")


def group_metric(group_id):
    """Metric stem of a reproduce check group (':' is not allowed in names)."""
    return "reproduce.group." + group_id.replace(":", "-")


def per_layer_names(group_ids):
    """Every per-layer metric the traced run reports, with its unit."""
    names = {"ffpoly.fpscalar_new.calls": "count"}
    for _mod, _attr, stem, self_stem, _span in TARGETS:
        names[stem + ".calls"] = "count"
        names[self_stem + ".self_s"] = "s"
    names["localcoh.reduce.subs_per_call"] = "subs/call"
    names["height.count_points.evals_per_point"] = "evals/point"
    for gid in group_ids:
        names[group_metric(gid) + ".s"] = "s"
    for layer in LAYERS:
        names[f"layer.{layer}.self_s"] = "s"
    names["trace.spans"] = "count"
    names["trace.traced_pass_s"] = "s"
    names["trace.untraced_pass_s"] = "s"
    names["trace.kernel_s"] = "s"
    names["trace.overhead_frac"] = "ratio"
    return names


class Tracer:
    """Counters, self times and coarse spans for one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.spans = []  # [name, start, end, parent index]
        self.subs_in_reduce = 0
        self.evals_in_count = 0
        self.points_counted = 0
        self._frames = []  # [time of traced children, span index or None]
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, fn, stem, self_stem, span):
        frames = self._frames
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = None
            if span:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                sid = len(spans)
                spans.append([stem, 0.0, 0.0, parent])
            frame = [0.0, sid]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                dt = t1 - t0
                calls[stem] += 1
                self_s[self_stem] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if sid is not None:
                    spans[sid][1] = t0
                    spans[sid][2] = t1

        return wrapper

    def _counted(self, fn, stem):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[stem] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _reduce_counted(self, fn):
        """reduce, also counting the witt_sub calls made inside each outermost call."""
        calls = self.calls
        depth = [0]

        def wrapper(*args, **kwargs):
            depth[0] += 1
            before = calls["witt.sub"]
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    self.subs_in_reduce += calls["witt.sub"] - before

        return wrapper

    def _count_points_counted(self, fn):
        """count_points, also counting evaluate_poly calls per counted point."""
        calls = self.calls

        def wrapper(*args, **kwargs):
            before = calls["ffpoly.ff_evaluate"]
            result = fn(*args, **kwargs)
            self.evals_in_count += calls["ffpoly.ff_evaluate"] - before
            self.points_counted += result
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def _rebind(self, original, wrapper, home=None):
        """Replace original by wrapper wherever an rdpk3 namespace holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "rdpk3" and not modname.startswith("rdpk3."):
                continue
            holders = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == modname
            ]
            for holder in holders:
                if holder is home:
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._undo.append((holder, name, original))

    def install(self, rdpk3):
        """Wrap every traced entry point of an imported rdpk3."""
        reproduce = rdpk3.reproduce
        for modname, path, stem, self_stem, span in TARGETS:
            mod = sys.modules[f"rdpk3.{modname}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = vars(owner)[attr]
            wrapper = self._timed(original, stem, self_stem, span)
            if stem == "localcoh.reduce":
                wrapper = self._reduce_counted(wrapper)
            elif stem == "height.count_points":
                wrapper = self._count_points_counted(wrapper)
            self._rebind(original, wrapper, home=mod if stem in HOME_EXCLUDED else None)

        fp_init = vars(rdpk3.ffpoly.FpScalar)["__init__"]
        self._rebind(fp_init, self._counted(fp_init, "ffpoly.fpscalar_new"))

        groups = reproduce.CHECK_GROUPS
        reproduce.CHECK_GROUPS = tuple(
            (gid, self._timed(fn, group_metric(gid), group_metric(gid), True), seeded, aliases)
            for gid, fn, seeded, aliases in groups
        )
        self._undo.append((reproduce, "CHECK_GROUPS", groups))

    def uninstall(self):
        """Put every original binding back."""
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def group_seconds(self, gid):
        stem = group_metric(gid)
        return sum(end - start for name, start, end, _p in self.spans if name == stem)

    def metrics(self, group_ids):
        """Per-layer values, by the names per_layer_names gives."""
        out = {}
        for name in per_layer_names(group_ids):
            stem, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[stem]
            elif kind == "self_s" and not stem.startswith("layer."):
                out[name] = self.self_s[stem]
        reduces = self.calls["localcoh.reduce"]
        out["localcoh.reduce.subs_per_call"] = self.subs_in_reduce / reduces if reduces else 0.0
        points = self.points_counted
        out["height.count_points.evals_per_point"] = self.evals_in_count / points if points else 0.0
        for gid in group_ids:
            out[group_metric(gid) + ".s"] = self.group_seconds(gid)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + ".")
            )
        out["trace.spans"] = len(self.spans)
        return out
