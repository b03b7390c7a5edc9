"""In-process tracer for the ncergodic layers.

Every function defined in a layer module, plus a few methods, is
replaced by a wrapper that records a span (name, start, end, parent).
The package re-exports functions (``from .dynamics import fixed_point``)
and keeps some in tables (``cli._RUNNERS``, ``maximal._STRATEGY_TABLE``),
so a wrapper is installed at every binding of the original function in
every loaded ``ncergodic`` module, and in dicts held by those modules.
Nothing in the package is edited; ``Tracer.restore`` puts every original
back.  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

LAYERS = ("cli", "dynamics", "maximal", "convergence", "algebra",
          "ncnorms", "spectral", "weights", "rng")

# (module, class, method) wrapped on the class itself.
METHODS = (
    ("dynamics", "Channel", "apply"),
    ("dynamics", "Channel", "spectral_gap"),
    ("weights", "WeightSequence", "besicovitch_certificate"),
)

PACKAGE = "ncergodic"


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Install with ``install()``, undo with ``restore()``; also a
    context manager doing both."""

    def __init__(self, hooks=None):
        # hooks: span name -> fn(args, kwargs) called after each call
        self.hooks = dict(hooks or {})
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._undo = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # Worker threads (cli's ThreadPoolExecutor) nest under the
                # innermost open span of the thread that installed us.
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, 0.0, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs)

        wrapper.__traced__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper, modules):
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper

    def install(self):
        """Wrap every function of the layer modules and the METHODS."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack()
        modules = self._package_modules()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(fn)):
                    self._rebind(fn, self._wrap(f"{layer}.{attr}", fn),
                                 modules)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr,
                    self._wrap(f"{layer}.{cls_name}.{attr}", original))
        return self

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """Span -> duration minus the time its direct children cover."""
        covered = {}
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] = (covered.get(id(span.parent), 0.0)
                                            + span.duration)
        return [(span, span.duration - covered.get(id(span), 0.0))
                for span in self.spans]

    def descendants_of(self, root):
        """Spans nested (at any depth) inside ``root``."""
        inside = {id(root)}
        out = []
        for span in self.spans:  # parents are recorded before children
            if span.parent is not None and id(span.parent) in inside:
                inside.add(id(span))
                out.append(span)
        return out

    def to_json(self):
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent))} for s in self.spans]
