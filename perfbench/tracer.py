"""Outside-in tracer: spans around the calls into each orbifunctor layer.

Nothing in the program is edited.  `Tracer.install` replaces each listed
public function or method, in every ``orbifunctor.*`` namespace that binds
it, with a wrapper that records a span (name, start, end, parent, job).
`Tracer.uninstall` puts the originals back.  Two hot leaves, ``IntMatrix``
construction and ``IntMatrix.apply``, are counted and timed in aggregate
instead of one span per call; their time is charged to ``exact_abelian`` and
subtracted from the self time of the span that made them.

Size and growth counters read only the values the wrapped calls return.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, dotted attribute, group).  The group names the metric family a
# span feeds; None means "self time only".
TARGETS = (
    ("exact_abelian", "smith_normal_form", "smith"),
    ("exact_abelian", "kernel_basis", "smith"),
    ("exact_abelian", "solve", "smith"),
    ("exact_abelian", "LatticeBasis.__init__", "smith"),
    ("exact_abelian", "cokernel_presentation", "smith"),
    ("exact_abelian", "hom_kernel", None),
    ("exact_abelian", "hom_cokernel", None),
    ("exact_abelian", "hom_image", None),
    ("exact_abelian", "quotient_group", None),
    ("exact_abelian", "express_in_kernel", None),
    ("exact_abelian", "HomologyData.__init__", None),
    ("exact_abelian", "HomBasis.__init__", None),
    ("exact_abelian", "TensorBasis.__init__", None),
    ("exact_abelian", "DirectSum.__init__", None),
    ("fincat", "FinGroup.from_permutations", None),
    ("fincat", "FinGroup.all_subgroups", None),
    ("fincat", "orbit_category", None),
    ("fincat", "standard_category", None),
    ("fincat", "one_object_category", None),
    ("fincat", "coset_g_set", None),
    ("fincat", "transport_groupoid", None),
    ("fincat", "pi0", None),
    ("fincat", "sub_category_and_projection", None),
    ("catmod", "CatHomGroup.__init__", "hom"),
    ("catmod", "CatHomGroup.postcompose_map", "hom"),
    ("catmod", "CatHomGroup.precompose_map", "hom"),
    ("catmod", "CatHomGroup.coords_of", "hom"),
    ("catmod", "CatHomGroup.to_module_map", "hom"),
    ("catmod", "CatTensor.__init__", "tensor"),
    ("catmod", "CatTensor.induced", "tensor"),
    ("catmod", "CatTensor.components", "tensor"),
    ("catmod", "CatTensor.class_of_pure", "tensor"),
    ("catmod", "free_module", None),
    ("catmod", "free_map_from_images", None),
    ("chainplex", "comparison_map_t", "comparison"),
    ("chainplex", "TotalTensorComplex.__init__", "total"),
    ("chainplex", "TotalHomComplex.__init__", "total"),
    ("chainplex", "homology", "homology"),
    ("chainplex", "induced_map_on_homology", "homology"),
    ("chainplex", "CatChainComplex.evaluate_at", None),
    ("chainplex", "tensor_total_induced", None),
    ("chainplex", "hom_total_induced", None),
    ("cellspaces", "cellular_chain_complex", None),
    ("cellspaces", "classifying_model", None),
    ("cellspaces", "fixed_point_chains", None),
    ("cellspaces", "centralizer_quotient_chains", None),
    ("cellspaces", "bar_resolution_truncated", "bar"),
    ("cellspaces", "borel_and_quotient", "bar"),
    ("verify", "check_hypotheses", None),
    ("verify", "verify_comparison", None),
    ("verify", "classify_map", "classify"),
    ("verify", "sub_factorization_check", None),
    ("verify", "borel_vs_quotient_check", None),
    ("verify", "transport_pi0_module", None),
    ("cli", "parse_manifest", "parse"),
    ("cli", "run", None),
    ("cli", "Report.to_json", "report"),
)
LEAVES = (("exact_abelian", "IntMatrix.__init__", "matrix_builds"),
          ("exact_abelian", "IntMatrix.apply", "matvec"))
LAYERS = ("exact_abelian", "fincat", "catmod", "chainplex", "cellspaces",
          "verify", "cli")


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _matrices(value):
    """The integer matrices a Smith entry point returned, as row lists."""
    out = []
    for attr in ("u", "v", "to_can", "reps", "matrix"):
        m = getattr(value, attr, None)
        if hasattr(m, "rows"):
            out.append(m.rows)
    if hasattr(value, "rows"):
        out.append(value.rows)
    st = getattr(value, "_st", None)          # LatticeBasis keeps its witnesses
    for attr in ("u", "v"):
        rows = getattr(st, attr, None)
        if rows:
            out.append(rows)
    if isinstance(value, list):               # a solution vector
        out.append([value])
    return out


def _complex_ranks(c):
    """Generator counts per degree of a plain or functor chain complex."""
    if hasattr(c, "groups"):
        return [g.ngens for g in c.groups.values()]
    return [c.module(p).total_rank() for p in c.degrees()]


class Tracer:
    """Spans and counters for one traced pass of a job list."""

    def __init__(self):
        self.spans = []          # [name, layer, group, start, end, parent, job, leaf_s]
        self.stack = []
        self.job = None
        self.leaf = {name: [0, 0.0] for _, _, name in LEAVES}
        self.counts = {"smith_max_dim": 0, "witness_bits_max": 0,
                       "total_rank_max": 0, "bar_rank_total": 0}
        self._undo = []

    # -- installing --------------------------------------------------------

    def install(self):
        for layer, attr, group in TARGETS:
            self._patch(layer, attr, lambda fn, a=attr, l=layer, g=group:
                        self._span_wrapper(fn, a, l, g))
        for layer, attr, name in LEAVES:
            self._patch(layer, attr, lambda fn, n=name:
                        self._leaf_wrapper(fn, n))

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def _patch(self, layer, attr, make):
        module = sys.modules[f"orbifunctor.{layer}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(original.__func__))
            else:
                wrapped = make(original)
            self._undo.append((cls, meth, original))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "orbifunctor" or name.startswith("orbifunctor."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, attr, layer, group):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack
        observe = self._observer(group)
        is_init = attr.endswith("__init__")

        def wrapper(*args, **kwargs):
            rec = [attr, layer, group, 0.0, 0.0,
                   stack[-1][0] if stack else -1, self.job, 0.0]
            index = len(spans)
            spans.append(rec)
            stack.append((index, rec))
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(args[0] if is_init else result)
            return result
        return wrapper

    def _leaf_wrapper(self, fn, name):
        clock = time.perf_counter
        stats, stack = self.leaf[name], self.stack

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1][1][7] += dt
        return wrapper

    def _observer(self, group):
        counts = self.counts
        if group == "smith":
            def observe(value):
                for rows in _matrices(value):
                    dim = max(len(rows), len(rows[0]) if rows else 0)
                    counts["smith_max_dim"] = max(counts["smith_max_dim"], dim)
                    counts["witness_bits_max"] = max(
                        counts["witness_bits_max"], _bits(rows))
            return observe
        if group == "total":
            def observe(value):
                ranks = _complex_ranks(value.complex)
                counts["total_rank_max"] = max(counts["total_rank_max"],
                                               max(ranks, default=0))
            return observe
        if group == "bar":
            def observe(value):
                c = getattr(value, "borel", value)
                counts["bar_rank_total"] += sum(_complex_ranks(c))
            return observe
        return None

    # -- summaries ---------------------------------------------------------

    def self_times(self):
        """Self time per span: duration less its child spans and leaves."""
        own = [rec[4] - rec[3] - rec[7] for rec in self.spans]
        for rec in self.spans:
            if rec[5] >= 0:
                own[rec[5]] -= rec[4] - rec[3]
        return own

    def metrics(self, wall_s, jobs_s):
        """Per-layer metrics of a traced pass.

        wall_s is the pass's wall time and jobs_s the sum of its job times,
        both from the benchmark's own stopwatch; the rest of the wall time is
        benchmark-side.  The layers' self times must add up to jobs_s.
        """
        own = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for rec, s in zip(self.spans, own):
            layer_self[rec[1]] += s
        layer_self["exact_abelian"] += sum(s for _, s in self.leaf.values())
        bench_s = wall_s - jobs_s
        gap = abs(sum(layer_self.values()) + bench_s - wall_s)
        if gap > max(0.01 * wall_s, 0.01):
            raise RuntimeError(f"layer self times plus benchmark-side time "
                               f"miss the traced wall time by {gap:.4f}s")

        def outer(group):
            # calls counts every span of the group, nested ones included;
            # the time is that of the outermost spans only, so that time
            # nested in another call of the same group is not counted twice
            calls, total = 0, 0.0
            for rec in self.spans:
                if rec[2] != group:
                    continue
                calls += 1
                parent = rec[5]
                while parent >= 0 and self.spans[parent][2] != group:
                    parent = self.spans[parent][5]
                if parent < 0:
                    total += rec[4] - rec[3]
            return calls, total

        def self_of(group):
            return sum(s for rec, s in zip(self.spans, own) if rec[2] == group)

        smith_calls, smith_s = outer("smith")
        hom_calls, hom_s = outer("hom")
        tensor_calls, tensor_s = outer("tensor")
        out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
        out.update({
            "exact_abelian.smith_calls": (smith_calls, "count"),
            "exact_abelian.smith_s": (smith_s, "s"),
            "exact_abelian.smith_max_dim": (self.counts["smith_max_dim"],
                                            "count"),
            "exact_abelian.witness_bits_max": (
                self.counts["witness_bits_max"], "bits"),
            "exact_abelian.matvec_calls": (self.leaf["matvec"][0], "count"),
            "exact_abelian.matvec_s": (self.leaf["matvec"][1], "s"),
            "exact_abelian.matrix_builds": (self.leaf["matrix_builds"][0],
                                            "count"),
            "catmod.hom_calls": (hom_calls, "count"),
            "catmod.hom_s": (hom_s, "s"),
            "catmod.tensor_calls": (tensor_calls, "count"),
            "catmod.tensor_s": (tensor_s, "s"),
            "chainplex.comparison_s": (self_of("comparison"), "s"),
            "chainplex.total_s": (outer("total")[1], "s"),
            "chainplex.homology_s": (outer("homology")[1], "s"),
            "chainplex.total_rank_max": (self.counts["total_rank_max"],
                                         "count"),
            "cellspaces.bar_rank_total": (self.counts["bar_rank_total"],
                                          "count"),
            "verify.classify_s": (outer("classify")[1], "s"),
            "cli.parse_s": (outer("parse")[1], "s"),
            "cli.report_s": (outer("report")[1], "s"),
            "trace.bench_s": (bench_s, "s"),
        })
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "group", "start", "end",
                                  "parent", "job", "leaf_s"],
                       "spans": self.spans,
                       "leaves": self.leaf}, fh)
