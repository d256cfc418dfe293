"""Outside-in span tracer for the ellgenus benchmark.

Spans are opened and closed around calls into the package's public
functions by wrappers that the benchmark installs from outside; the
package itself is not modified.  Spans are aggregated in memory by name:

* ``calls``: number of spans of that name;
* ``s``: inclusive time, counting only the outermost active span of a name,
  so recursion is not double counted;
* ``self_s``: span duration minus the time covered by its child spans.

``edges`` counts (parent name, child name) pairs, which lets a caller tell a
cache hit (no qx_of_phiell_product span under the request) from a build.
"""

from __future__ import annotations

import functools
import time

ROOT_SPAN = "cli.main"
PRODUCT_SPEC = "jacobi_q._product_spec"
PRODUCT_SPANS = "jacobi_q.qx_of_phiell_product."


def _product_span(args, kwargs):
    # the product is built over Q(y) ("formal") or over Q(zeta_N) (an integer N)
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "formal")
    return PRODUCT_SPANS + ("formal" if mode == "formal" else "cyclotomic")


# Module, attribute and span name of every function the benchmark traces.
# A span name may be a function of the call's (args, kwargs).
FUNCTIONS = [
    ("universal_elliptic", "solve_h", "universal_elliptic.solve_h"),
    ("universal_elliptic", "phi_ell", "universal_elliptic.phi_ell"),
    ("universal_elliptic", "specialize", "universal_elliptic.specialize"),
    ("jacobi_q", "qx_of_phiell_product", _product_span),
    ("jacobi_q", "_product_spec", PRODUCT_SPEC),
    ("jacobi_q", "chi_y_loop", "jacobi_q.chi_y_loop"),
    ("jacobi_q", "extract_qi", "jacobi_q.extract_qi"),
    ("jacobi_q", "match_quartic", "jacobi_q.match_quartic"),
    ("genus_engine", "multiplicative_sequence",
     "genus_engine.multiplicative_sequence"),
    ("genus_engine", "evaluate", "genus_engine.evaluate"),
    ("genus_engine", "formal_group_law", "genus_engine.formal_group_law"),
    ("blowup", "verify_elliptic_identity", "blowup.verify_elliptic_identity"),
    ("blowup", "genus_defect", "blowup.genus_defect"),
    ("blowup", "flag_pushforward", "blowup.flag_pushforward"),
    ("blowup", "verify_blowup_invariance", "blowup.verify_blowup_invariance"),
    ("level_n", "compute_level_data", "level_n.compute_level_data"),
    ("level_n", "eliminate", "level_n.eliminate"),
    ("level_n", "kernel_membership", "level_n.kernel_membership"),
    ("algebra_kernel", "resultant_in", "algebra_kernel.resultant_in"),
    ("algebra_kernel", "poly_gcd", "algebra_kernel.poly_gcd"),
    ("algebra_kernel", "poly_divmod", "algebra_kernel.poly_divmod"),
    ("cohomology_models", "chern_vector", "cohomology_models.chern_vector"),
] + [("cli", f"criterion_{i}", f"cli.criterion_{i}") for i in range(1, 11)]

# Classes whose __mul__ is traced as "algebra_kernel.mul.<class>".
MUL_CLASSES = ["WeightedPoly", "RationalFunction", "MultiPoly", "QuotElt",
               "TruncatedSeries"]


class Tracer:
    """A stack of open spans and per-name aggregates; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}   # name -> [calls, inclusive_s, self_s]
        self.edges = {}   # (parent name, child name) -> calls
        self._stack = []  # open spans: [name, start, time covered by children]
        self._depth = {}  # name -> number of open spans of that name

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.edges[parent, name] = self.edges.get((parent, name), 0) + 1
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        end = self.clock()
        name, start, children = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[2] += dur - children
        self._depth[name] -= 1
        if not self._depth[name]:
            st[1] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, fn, name):
        """fn with a span around each call; name is a str or a function of
        the call's (args, kwargs)."""
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(pick(args, kwargs) if pick else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def to_json(self):
        return {"stats": self.stats,
                "edges": [[p, c, n] for (p, c), n in self.edges.items()]}


def install(tracer, modules):
    """Wrap every traced function in each namespace that binds it.

    modules: the imported ``ellgenus.*`` modules.  The package binds
    functions with ``from .x import y``, so each binding is replaced, not
    only the defining one.  The verification criteria are also referenced
    from ``cli.CRITERIA``, which is patched in place.
    """
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for mod_name, attr, span in FUNCTIONS:
        orig = getattr(by_name[mod_name], attr)
        traced = tracer.wrap(orig, span)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, traced)
        criteria = by_name["cli"].CRITERIA
        for i, (num, title, fn) in enumerate(criteria):
            if fn is orig:
                criteria[i] = (num, title, traced)
    kernel = by_name["algebra_kernel"]
    for cls_name in MUL_CLASSES:
        cls = getattr(kernel, cls_name)
        cls.__mul__ = tracer.wrap(cls.__mul__, f"algebra_kernel.mul.{cls_name}")


def merge(traces):
    """Sum per-command trace documents into (stats, edges)."""
    stats, edges = {}, {}
    for tr in traces:
        for name, (calls, incl, self_s) in tr["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for parent, child, n in tr["edges"]:
            edges[parent, child] = edges.get((parent, child), 0) + n
    return stats, edges


def call_counts(trace):
    """Every count in a trace document, for the repeat check."""
    counts = {name: st[0] for name, st in trace["stats"].items()}
    counts.update({f"{p}->{c}": n for p, c, n in trace["edges"]})
    return counts
