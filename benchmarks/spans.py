"""Span tracing of karabounds from outside the package.

``Tracer`` wraps the public functions of each karabounds module and records
one span per call: name, start, end, parent span and the id of the CLI call
it belongs to.  Nothing inside ``src/`` is changed: installing the tracer
rebinds names, and uninstalling puts the original objects back.

Every binding a caller actually uses is replaced, not only the defining
module's attribute.  ``classical_entropy`` does
``from .scalar_bounds import ls_r_constant``, so its own ``ls_r_constant``
name is rebound too; calls inside a module go through its globals and are
caught the same way.  Spans stay in memory until the caller reads them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Modules whose public functions (their ``__all__``) become spans, in the
# order the package layers them.
TRACED_MODULES = (
    "functions",
    "scalar_bounds",
    "majorization",
    "classical_entropy",
    "operator_calculus",
    "verification",
)

# Span fields, kept as plain lists so that recording stays cheap.
NAME, START, END, PARENT, CALL, DETAIL = range(6)


def _stack_shape(args, kwargs):
    mats = args[0] if args else kwargs.get("mats")
    shape = getattr(mats, "shape", None)
    if shape is None or len(shape) != 3:
        return None
    return int(shape[0]), int(shape[1])


def _first_arg(args, kwargs):
    return args[0] if args else None


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


# Extra facts recorded with a span: the (k, d) shape of an eigensolver stack,
# the suite id of run_suite, and the argument key of the constants whose
# repeated calls mark a caching opportunity.
DETAIL_OF = {
    "operator_calculus.eigh_stack": _stack_shape,
    "operator_calculus.eigvals_stack": _stack_shape,
    "verification.run_suite": _first_arg,
    "scalar_bounds.beta_constant": _arg_key,
    "scalar_bounds.kantorovich": _arg_key,
    "scalar_bounds.c_of_hr": _arg_key,
}


def traced_functions(package):
    """(span name, function) for every traced function of ``package``."""
    out = []
    for short in TRACED_MODULES:
        mod = getattr(package, short)
        for attr in mod.__all__:
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out.append((f"{short}.{attr}", fn))
    out.append(("cli.main", package.cli.main))
    return out


class Tracer:
    """Records spans while installed; ``spans`` holds them in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._call_id = 0
        self._restore = []

    # -- wrappers -----------------------------------------------------------

    def _open(self, name, detail):
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else -1
        if parent < 0:
            self._call_id += 1
        rec = [name, 0.0, 0.0, parent, self._call_id, detail]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        detail_of = DETAIL_OF.get(name)

        if inspect.isgeneratorfunction(fn):
            # The work of a generator happens in next(), interleaved with the
            # consumer, so each next() is its own span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = self._open(name, None)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, detail_of(args, kwargs) if detail_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, package):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        replaced = {}
        for name, fn in traced_functions(package):
            replaced[id(fn)] = (fn, self.wrap(name, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        spec = package.functions.FunctionSpec
        call = vars(spec)["__call__"]
        spec.__call__ = self.wrap("functions.FunctionSpec.__call__", call)
        self._restore.append((spec, "__call__", call))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []


def summarize(spans):
    """Per-name totals of a list of spans.

    Returns a dict with ``calls``, ``incl`` (inclusive seconds) and ``self``
    (inclusive minus the direct children) per span name, plus the eigensolver
    matrix counts and per-dimension self time, run_suite time per suite,
    calls per (name, parent name), how many calls repeated arguments
    already seen in these spans, and the largest eigensolver stack (k, d).
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    matrices = defaultdict(int)
    self_by_dim = defaultdict(float)
    suite_s = defaultdict(float)
    by_parent = defaultdict(int)
    seen = defaultdict(set)
    repeats = defaultdict(int)
    largest = (0, 0)
    root_s = 0.0
    for i, rec in enumerate(spans):
        name, dur = rec[NAME], rec[END] - rec[START]
        calls[name] += 1
        incl[name] += dur
        self_s[name] += dur - child[i]
        if rec[PARENT] < 0:
            root_s += dur
        else:
            by_parent[(name, spans[rec[PARENT]][NAME])] += 1
        detail = rec[DETAIL]
        if detail is None:
            continue
        if name == "verification.run_suite":
            suite_s[detail] += dur
        elif name in ("operator_calculus.eigh_stack", "operator_calculus.eigvals_stack"):
            matrices[name] += detail[0]
            if name == "operator_calculus.eigh_stack":
                self_by_dim[detail[1]] += dur - child[i]
                largest = max(largest, detail, key=lambda kd: kd[0] * kd[1] ** 2)
        else:
            if detail in seen[name]:
                repeats[name] += 1
            else:
                seen[name].add(detail)
    return {
        "calls": dict(calls),
        "incl": dict(incl),
        "self": dict(self_s),
        "matrices": dict(matrices),
        "eigh_self_by_dim": dict(self_by_dim),
        "suite_s": dict(suite_s),
        "calls_by_parent": dict(by_parent),
        "repeats": dict(repeats),
        "largest_stack": largest,
        "root_s": root_s,
        "self_total": sum(self_s.values()),
    }
