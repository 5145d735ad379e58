"""Spans around the layer entry points of weylclifford, from outside it.

While a Tracer is installed it replaces public entry points with
wrappers that record one span per call: name, start, end, parent span
and operation id.  Spans stay in memory and are written out at the
end.  A module function is replaced on the module its callers look it
up in, as ``module.name`` at call time, which is how the benchmark and
the package's own modules (cli, qbinom, commforms) reach the functions
listed here.  A layer's self time is its span time minus the time of
its direct child spans.
"""

from __future__ import annotations

import functools
import time

# (module, attribute, span name) for module functions
FUNCTIONS = [
    ("algebra", "lame_check", "algebra.lame_check"),
    ("algebra", "to_matrix", "algebra.to_matrix"),
    ("qbinom", "q_binomial", "qbinom.q_binomial"),
    ("qbinom", "deformed_binomial_theorem_check", "qbinom.theorem_check"),
    ("qbinom", "commuting_factorization_check", "qbinom.factorization_check"),
    ("matrep", "t_generators", "matrep.t_generators"),
    ("matrep", "verify_relations", "matrep.verify_relations"),
    ("matrep", "lame_residual", "matrep.lame_residual"),
    ("matrep", "standardize_weyl_pair", "matrep.standardize"),
    ("commforms", "random_symplectic", "commforms.random_symplectic"),
    ("commforms", "conjugate_to_N", "commforms.conjugate_to_N"),
    ("commforms", "transform_form", "commforms.transform_form"),
    ("sampling", "sample_coefficients", "sampling.sample"),
    ("sampling", "sample_cyclotomic", "sampling.sample"),
]

# (module, class, attribute, span name) for operators; __rmul__ and
# __radd__ are separate class attributes, so each is wrapped on its own
OPERATORS = [
    ("cyclotomic", "CyclotomicNumber", "__mul__", "cyclotomic.mul"),
    ("cyclotomic", "CyclotomicNumber", "__rmul__", "cyclotomic.mul"),
    ("cyclotomic", "CyclotomicNumber", "__add__", "cyclotomic.add"),
    ("cyclotomic", "CyclotomicNumber", "__radd__", "cyclotomic.add"),
    ("cyclotomic", "CyclotomicNumber", "inverse", "cyclotomic.inverse"),
    ("algebra", "AlgebraElement", "__mul__", "algebra.element_mul"),
]


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = [-1]
        self.op = None  # id of the running operation, or "inputs"
        self.pair_products = 0
        self.terms_out = 0
        self.peak_terms = 0
        self._saved = []
        self.missing = []  # entry points not found, so not traced

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], self.op]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def _element_mul(self, fn):
        element = getattr(self.package.algebra, "AlgebraElement")

        @functools.wraps(fn)
        def counted(x, y):
            out = fn(x, y)
            if isinstance(y, element) and out is not NotImplemented:
                self.pair_products += len(x.terms) * len(y.terms)
                self.terms_out += len(out.terms)
                self.peak_terms = max(self.peak_terms, len(out.terms))
            return out

        return self.span("algebra.element_mul", counted)

    def install(self) -> None:
        pkg = self.package
        for mod, attr, name in FUNCTIONS:
            module = getattr(pkg, mod)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original))
        for mod, cls_name, attr, name in OPERATORS:
            cls = getattr(getattr(pkg, mod), cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{cls_name}.{attr}")
                continue
            self._saved.append((cls, attr, original))
            if name == "algebra.element_mul":
                setattr(cls, attr, self._element_mul(original))
            else:
                setattr(cls, attr, self.span(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self, select) -> dict:
        """Per span name: calls, total and self time in ms of spans whose op id passes select."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if not select(op):
                continue
            calls, total, self_ns = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + end - start, self_ns + end - start - child[i])
        return {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in out.items()}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{op}\t{name}\t{start}\t{end}\n")
