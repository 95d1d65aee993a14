"""Per-layer spans for the traced run, taken without touching ringinv.

Tracer.install wraps every public function of each ringinv module and the
public methods (plus __init__) of the classes defined there.  It rebinds
every reference to an original that the modules hold, which covers the
copies taken by `from .linalg import rref` and the functions stored in
module-level dicts such as NAMED_INVERSES.  Tracer.restore puts every
original back and checks that it did.

Spans are kept in memory as per-name totals: calls, inclusive time and
self time (the span's time minus the time of its child spans).  The
methods of RingElement and of the scalar fields are left unwrapped: they
run in the innermost loops, so their cost is counted as self time of the
layer that calls them.
"""

import functools
import importlib
import inspect
import time

MODULES = ("cli", "rings", "linalg", "ideals", "projectors", "geninv",
           "prescribed", "special", "oracle")
UNWRAPPED_CLASSES = frozenset(("RingElement", "Rationals", "PrimeField"))
# Spans whose (arguments) are remembered, to measure how often a call
# repeats one already made: the most a memo cache could hit.
REPEAT_KEYED = frozenset(("ideals.principal", "ideals.annihilator"))

CALLS, TOTAL, SELF, ITEMS, REPEATS = range(5)


class Tracer:
    def __init__(self, package="ringinv"):
        self.modules = {name: importlib.import_module(package + "." + name)
                        for name in MODULES}
        self.stats = {}
        self._stack = []
        self._seen = {}
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        count_items = fn.__name__ == "elements"
        seen = self._seen.setdefault(name, set()) \
            if name in REPEAT_KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                key = args + tuple(sorted(kwargs.items()))
                if key in seen:
                    stat[REPEATS] += 1
                else:
                    seen.add(key)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                stat[CALLS] += 1
                stat[TOTAL] += spent
                stat[SELF] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent
            if count_items:
                stat[ITEMS] += len(result)
            return result

        return traced

    def _patch(self, owner, key, original, replacement, is_dict=False):
        self._patches.append((owner, key, original, is_dict))
        if is_dict:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)

    def install(self):
        wrappers = {}
        for short, mod in self.modules.items():
            for attr, val in list(vars(mod).items()):
                if getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val) and not attr.startswith("_") \
                        and val not in wrappers:
                    wrappers[val] = self._wrap(
                        "%s.%s" % (short, val.__name__), val)
                elif inspect.isclass(val) and \
                        attr not in UNWRAPPED_CLASSES:
                    self._wrap_class(short, val)
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, val, wrappers[val])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(val, key, item, wrappers[item],
                                        is_dict=True)

    def _wrap_class(self, short, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = "%s.%s.%s" % (short, cls.__name__, attr)
            if isinstance(member, classmethod):
                wrapped = classmethod(self._wrap(name, member.__func__))
            elif isinstance(member, staticmethod):
                wrapped = staticmethod(self._wrap(name, member.__func__))
            elif inspect.isfunction(member):
                wrapped = self._wrap(name, member)
            else:
                continue
            self._patch(cls, attr, member, wrapped)

    def restore(self):
        """Put every original back, then check that each one is back."""
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        for owner, key, original, is_dict in self._patches:
            now = owner[key] if is_dict else vars(owner)[key]
            if now is not original:
                raise RuntimeError("tracer left %r wrapped" % (key,))
        self._patches = []

    # -- reading the spans ---------------------------------------------------

    def total(self, pattern, field):
        """Sum one field over span names matching pattern; '*' matches one
        dotted component."""
        want = pattern.split(".")
        out = 0
        for name, stat in self.stats.items():
            parts = name.split(".")
            if len(parts) == len(want) and all(
                    w in ("*", p) for w, p in zip(want, parts)):
                out += stat[field]
        return out

    def module_self(self, short):
        return sum(stat[SELF] for name, stat in self.stats.items()
                   if name.split(".")[0] == short)

    def table(self):
        """Every span name with its totals, for the end-of-run dump."""
        return {name: {"calls": s[CALLS], "total_s": s[TOTAL],
                       "self_s": s[SELF], "items": s[ITEMS],
                       "repeats": s[REPEATS]}
                for name, s in sorted(self.stats.items()) if s[CALLS]}
