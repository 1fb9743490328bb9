"""Per-layer counters, timers and spans for one traced `hall` run.

`install()` wraps the public functions of every `hallalg` module from the
outside, so the program itself carries no tracing code.  Each wrapped
function gets an aggregated record: `calls`, inclusive seconds `s`, and
`self_s`, its inclusive time minus the time spent in other wrapped functions
it called.  Functions called millions of times (`FqMatrix.__init__`) get only
that record; coarse boundaries (context, catalog build, each cone table, the
span model, each verify check) also get one span each, with the id of the
enclosing span as parent.  Single-threaded use only, like `--workers 1`.
"""

import itertools
import time

import hallalg
from hallalg import catalog, cli, derived, fq, hall, lf, reps, span, verify

clock = time.perf_counter

# (metric prefix, owner, attribute, kind).  The owner is a module for
# functions, whose every binding in every hallalg module is replaced, and a
# class for methods, which are replaced on the class.
#   call  - aggregated record only
#   span  - aggregated record plus one span per call
#   gen   - the call returns an iterator; count calls and the items it yields
#   sized - aggregated record plus `items`, the length of each result
WRAPPED = (
    ("fq.matrix_new", fq.FqMatrix, "__init__", "call"),
    ("fq.rref", fq.FqMatrix, "rref", "call"),
    ("fq.matmul", fq.FqMatrix, "__matmul__", "call"),
    ("fq.solve", fq, "solve", "call"),
    ("fq.rowspace_add", fq.RowSpace, "add", "call"),
    ("reps.is_isomorphic", reps, "is_isomorphic", "call"),
    ("reps.enumerate_homs", reps, "enumerate_homs", "gen"),
    ("reps.compose", reps.RepMorphism, "compose", "call"),
    ("reps.kernel_cokernel", reps, "kernel_cokernel", "call"),
    ("reps.enumerate_subreps", reps, "enumerate_subreps", "call"),
    ("reps.direct_sum", reps, "direct_sum", "call"),
    ("catalog.build", catalog, "catalog_build", "span"),
    ("catalog.classify", catalog.Catalog, "classify", "call"),
    ("catalog.aut_order", catalog.Catalog, "aut_order", "call"),
    ("derived.mapping_cone", derived, "mapping_cone", "call"),
    ("derived.homology", derived, "homology", "call"),
    ("derived.derived_class_of", derived, "derived_class_of", "call"),
    ("derived.homotopy_classes", derived.HomotopyClasses, "__init__", "call"),
    ("derived.hom_class_table", derived, "hom_class_table", "call"),
    ("hall.cone_table", hall, "cone_table", "span"),
    ("hall.basis_product", hall, "basis_product", "call"),
    ("hall.classical_product", hall, "classical_product", "call"),
    ("hall.derived_product", hall, "derived_product", "call"),
    ("hall.subrep_histogram", hall, "subrep_histogram", "call"),
    ("hall.count_exact_sequences", hall, "count_exact_sequences", "call"),
    ("span.build_span_model", span, "build_span_model", "span"),
    ("span.orbit", span, "_orbit", "sized"),
    ("span.mu_span", span, "mu_span", "call"),
    ("lf.pushforward", lf, "pushforward", "call"),
    ("lf.pullback", lf, "pullback", "call"),
    ("verify.orbit_stabilizer_check", verify, "orbit_stabilizer_check", "call"),
    ("cli.context", cli.RunConfig, "context", "span"),
    ("cli.emit", cli, "_emit", "call"),
)

MODULES = (hallalg, catalog, cli, derived, fq, hall, lf, reps, span, verify)

CALLS, S, SELF_S, ITEMS = range(4)


class Tracer:
    def __init__(self):
        self.records = {}     # prefix -> [calls, s, self_s, items]
        self.frames = []      # one [seconds in wrapped callees] per active call
        self.span_ids = [0]   # enclosing span ids; 0 is the whole run
        self.spans = []       # (id, parent id, name, start, end)
        self.span_counter = itertools.count(1)
        self.last_result = {}

    def wrap(self, prefix, fn, kind):
        rec = self.records.setdefault(prefix, [0, 0.0, 0.0, 0])
        frames = self.frames
        if kind == "gen":
            def counted(items):
                for item in items:
                    rec[ITEMS] += 1
                    yield item

            def wrapper(*args, **kwargs):
                rec[CALLS] += 1
                return counted(fn(*args, **kwargs))

            return wrapper

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                rec[CALLS] += 1
                rec[S] += dt
                rec[SELF_S] += dt - frame[0]

        if kind == "sized":
            def sized(*args, **kwargs):
                out = wrapper(*args, **kwargs)
                rec[ITEMS] += len(out)
                return out

            return sized
        if kind == "span":
            return self._spanned(prefix, wrapper)
        return wrapper

    def _spanned(self, name, fn):
        span_ids, spans, counter = self.span_ids, self.spans, self.span_counter

        def wrapper(*args, **kwargs):
            sid = next(counter)
            parent = span_ids[-1]
            span_ids.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span_ids.pop()
                spans.append((sid, parent, name, t0, clock()))
            self.last_result[name] = out
            return out

        return wrapper

    def install(self):
        for prefix, owner, attr, kind in WRAPPED:
            if isinstance(owner, type):
                setattr(owner, attr, self.wrap(prefix, owner.__dict__[attr], kind))
                continue
            orig = getattr(owner, attr)
            new = self.wrap(prefix, orig, kind)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, new)
        # verify dispatches its checks through a table, not by name
        for name, runner in list(verify._CHECK_RUNNERS.items()):
            verify._CHECK_RUNNERS[name] = self._check(name, runner)
        return self

    def _check(self, name, runner):
        prefix = f"verify.check.{name}"
        rec = self.records.setdefault(prefix, [0, 0.0, 0.0, 0])
        timed = self.wrap(prefix, runner, "span")

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            rec[ITEMS] += out["cases"]
            return out

        return wrapper

    def report(self) -> dict:
        metrics = {}
        for prefix, (calls, s, self_s, items) in self.records.items():
            metrics[f"{prefix}.calls"] = calls
            metrics[f"{prefix}.s"] = s
            metrics[f"{prefix}.self_s"] = self_s
            metrics[f"{prefix}.items"] = items
        for name in verify.ALL_CHECKS:
            metrics[f"verify.check.{name}.cases"] = metrics.get(
                f"verify.check.{name}.items", 0)
        # basis_product computes a product only when its cache misses
        metrics["hall.basis_product.misses"] = (
            metrics["hall.classical_product.calls"]
            + metrics["hall.derived_product.calls"]
        )
        built = self.last_result.get("catalog.build")
        metrics["catalog.classes"] = len(built) if built is not None else 0
        model = self.last_result.get("span.build_span_model")
        metrics["span.arrow_classes"] = (
            len(model.arrow_classes) if model is not None else 0)
        info = reps.hom_basis.cache_info()
        metrics["reps.hom_basis.hits"] = info.hits
        metrics["reps.hom_basis.misses"] = info.misses
        metrics["reps.hom_basis.entries"] = info.currsize
        return {
            "metrics": metrics,
            "spans": [
                {"id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for sid, parent, name, start, end in self.spans
            ],
        }


def install() -> Tracer:
    return Tracer().install()
