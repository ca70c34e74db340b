"""
Outside-in span recorder for the transonic package.

``Tracer.install`` wraps, at run time, the public functions held in each
``transonic.*`` module namespace, so every call made through a module
global records a span (name, start, end, parent, CLI command id).  Nothing
in the package is edited; ``Tracer.uninstall`` puts every original back.

Besides the package's own functions a few third-party names held in module
namespaces are wrapped to count work where it happens:

* ``sfft`` in ``grid``, ``linearized`` and ``reduction``: transform calls
  and transform sizes (points = the larger of input and output size);
* ``minres``, ``lobpcg`` and ``LinearOperator`` in ``linearized``: solver
  calls, MINRES iterations (through an added callback), and operator
  applies and columns per solver role;
* ``integrate`` in ``kernel``: ``quad`` calls and integrand evaluations.

Spans are kept in memory and written as JSON lines by ``write_jsonl``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

FFT_COUNTED = ("grid", "linearized", "reduction")


class _CountingModule:
    """Stand-in for a module object: callables count, everything else forwards."""

    def __init__(self, module, on_call):
        self._module = module
        self._on_call = on_call
        self._cache = {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not callable(attr) or inspect.isclass(attr):
            return attr
        if name not in self._cache:
            on_call = self._on_call

            @functools.wraps(attr)
            def counted(*args, **kwargs):
                return on_call(name, attr, args, kwargs)

            self._cache[name] = counted
        return self._cache[name]


def _size(a) -> int:
    return int(getattr(a, "size", 1))


class Tracer:
    """Spans and counters for one traced run; one instance per process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, command)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._command = None
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self._command)

    @contextmanager
    def command(self, command_id: int, name: str):
        """Span of one CLI call; every span inside it carries ``command_id``."""
        self._command = command_id
        try:
            with self.span(f"cli.{name}"):
                yield
        finally:
            self._command = None

    def _wrap(self, name: str, fn):
        key = id(fn)
        if key not in self._wrappers:
            tracer = self

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            self._wrappers[key] = wrapped
        return self._wrappers[key]

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = importlib.import_module("transonic")
        mods = {m.name: importlib.import_module(f"transonic.{m.name}")
                for m in pkgutil.iter_modules(pkg.__path__)}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("transonic.") or home == "transonic.cli":
                    continue
                self._set(mod, attr, self._wrap(f"{home.split('.')[-1]}.{obj.__name__}", obj))

        rf = mods["grid"].RealField2D
        self._set(rf, "__post_init__", self._wrap("grid.RealField2D", rf.__post_init__))

        for m in FFT_COUNTED:
            self._set(mods[m], "sfft", _CountingModule(mods[m].sfft, self._fft_counter(m)))

        lin = mods["linearized"]
        self._set(lin, "LinearOperator", self._linear_operator(lin.LinearOperator))
        self._set(lin, "minres", self._minres(lin.minres))
        self._set(lin, "lobpcg", self._lobpcg(lin.lobpcg))

        ker = mods["kernel"]
        self._set(ker, "integrate", _CountingModule(ker.integrate, self._quad_counter()))

        io = mods["io"]
        write_field = io.write_field  # already the span wrapper

        def counted_write_field(*args, **kwargs):
            path = write_field(*args, **kwargs)
            self.counts["io.bytes_written"] += os.path.getsize(path)
            self.counts["io.bytes_written"] += os.path.getsize(path.with_suffix(".json"))
            return path

        for mod in mods.values():
            if getattr(mod, "write_field", None) is write_field:
                self._set(mod, "write_field", counted_write_field)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- counted third-party calls -------------------------------------------

    def _fft_counter(self, module: str):
        def on_call(name, fn, args, kwargs):
            out = fn(*args, **kwargs)
            if name.startswith(("fft", "ifft", "rfft", "irfft")) and not name.endswith("freq"):
                self.counts[f"{module}.fft.calls"] += 1
                self.counts[f"{module}.fft.points"] += max(_size(args[0]) if args else 0, _size(out))
                if module == "reduction" and name == "fft":
                    self.counts["reduction.picard_iters"] += 1
            return out

        return on_call

    def _quad_counter(self):
        def on_call(name, fn, args, kwargs):
            if name != "quad":
                return fn(*args, **kwargs)
            self.counts["kernel.quad.calls"] += 1
            func = args[0]

            def integrand(*a):
                self.counts["kernel.quad.integrand_evals"] += 1
                return func(*a)

            return fn(integrand, *args[1:], **kwargs)

        return on_call

    def _linear_operator(self, cls):
        """Wrap the matvec/matmat callables so each apply is a span named by
        the role the solver gives the operator (``minres.A``, ``lobpcg.M``...)."""

        def make(*args, **kwargs):
            role = {"name": "linearized.LinearOperator"}

            def apply(fn, ncols):
                @functools.wraps(fn)
                def applied(x):
                    name = role["name"]
                    self.counts[f"{name}.calls"] += 1
                    self.counts[f"{name}.cols"] += ncols(x)
                    with self.span(name):
                        return fn(x)

                return applied

            if kwargs.get("matvec") is not None:
                kwargs["matvec"] = apply(kwargs["matvec"], lambda x: 1)
            if kwargs.get("matmat") is not None:
                kwargs["matmat"] = apply(kwargs["matmat"], lambda x: x.shape[1] if x.ndim == 2 else 1)
            op = cls(*args, **kwargs)
            op._perfbench_role = role
            return op

        return make

    @staticmethod
    def _name_roles(solver: str, A, M) -> None:
        for op, tag in ((A, "A"), (M, "M")):
            role = getattr(op, "_perfbench_role", None)
            if role is not None:
                role["name"] = f"linearized.{solver}.{tag}"

    def _minres(self, fn):
        def minres(A, b, *args, **kwargs):
            self._name_roles("minres", A, kwargs.get("M"))
            if kwargs.get("callback") is None:
                def callback(xk):
                    self.counts["linearized.minres.iters"] += 1

                kwargs["callback"] = callback
            return fn(A, b, *args, **kwargs)

        return self._wrap("linearized.minres", minres)

    def _lobpcg(self, fn):
        def lobpcg(A, X, *args, **kwargs):
            self._name_roles("lobpcg", A, kwargs.get("M"))
            return fn(A, X, *args, **kwargs)

        return self._wrap("linearized.lobpcg", lobpcg)

    # -- output ---------------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s and self_s (total minus child spans)."""
        child_time = defaultdict(float)
        for sid, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, parent, _ in self.spans:
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[sid]
        return out

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "command")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
            fh.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")
