"""Traced launcher: run one ``toeplitz`` invocation with spans at every layer.

Usage: ``python bench/launch.py RECORD.json ARGS...`` behaves like
``python -m toeplitz ARGS...`` (same stdout, files and exit code) and also
writes RECORD.json when the invocation ends.

Each module of the package is a layer.  Every public function of a module is
wrapped under the name ``<module>.<function>``, and so is every other binding
of it, such as the names that other modules took with ``from .x import y``.
A wrapped call records a span (id, name, start, end, parent id); spans live
in memory until exit.  Functions handed to ``parallel.run_map`` get a span
whose parent is the ``run_map`` span, also on worker threads, so pool waits
are told apart from the mapped work.  A few hooks count work at the same
boundaries (symbols materialized, factor sets built, windows scanned,
cocycle steps, dense section sizes).  Hooks that no longer match the code
count nothing; they never change what the program does.
"""

import time

T_START = time.monotonic()

import toeplitz.cli  # noqa: E402  (the import is what cli.import_s times)

T_IMPORTED = time.monotonic()

import functools  # noqa: E402
import inspect  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {}
        self.originals = {}  # qualified name -> unwrapped callable
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def count(self, key, amount=1):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "toeplitz" or n.startswith("toeplitz."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or \
                        getattr(obj, "__module__", None) != mod.__name__ or \
                        not inspect.isfunction(inspect.unwrap(obj)):
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = obj
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        scans = getattr(sys.modules.get("toeplitz.repetitivity"),
                        "_window_contains_all", None)
        if scans is not None:
            self.originals["repetitivity._window_contains_all"] = scans
            wrappers[id(scans)] = (scans, self._counted(
                "repetitivity.host_scans", scans))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = None
        if hook is not None or name == "parallel.run_map":
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                hook = None

        if name == "parallel.run_map" and signature is not None:
            def inner(*args, **kwargs):
                owner = self._stack()[-1]
                bound = signature.bind(*args, **kwargs)
                mapped = bound.arguments.get("fn")
                if callable(mapped):
                    jobs = bound.arguments.get("jobs", 1)
                    with self._lock:
                        self.counters["parallel.jobs"] = max(
                            self.counters.get("parallel.jobs", 0), jobs)
                    bound.arguments["fn"] = self._adopt(mapped, owner)
                return fn(*bound.args, **bound.kwargs)

            @functools.wraps(fn)
            def traced_map(*args, **kwargs):
                return self.call(name, inner, args, kwargs)
            return traced_map

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = None
            if hook is not None:
                before = hook.before(self)
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                try:
                    hook.after(self, signature.bind(*args, **kwargs).arguments,
                               result, before)
                except Exception:  # a stale hook must not change the program
                    self.count("trace.hook_errors")
            return result
        return traced

    def _adopt(self, fn, owner):
        """Span the mapped work under `owner`, on whichever thread runs it."""
        layer = getattr(fn, "__module__", "") or ""
        layer = layer.rpartition(".")[2]
        head = getattr(fn, "__qualname__", "mapped").split(".")[0]
        name = f"{layer}.{head}.mapped"

        def mapped(*args, **kwargs):
            return self.call(name, fn, args, kwargs, parent=owner)
        return mapped

    def cache_totals(self, *fns):
        """[hits, misses] summed over the `lru_cache`s among `fns`."""
        hits = misses = 0
        for fn in fns:
            info = getattr(fn, "cache_info", None)
            if info is not None:
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return [hits, misses]


class Hook:
    """Counts work from a call's bound arguments and result."""

    def __init__(self, after, before=None):
        self.after = after
        self.before = before or (lambda tracer: None)


def _language_cache():
    return getattr(sys.modules.get("toeplitz.language"), "_language", None)


def _misses(fn):
    info = getattr(fn, "cache_info", None)
    return None if info is None else info().misses


def _after_language(tracer, args, result, misses_before):
    misses = _misses(_language_cache())
    if misses_before is None or misses is None or misses > misses_before:
        tracer.count("language.factors", len(result))


def _after_enclosing(tracer, args, result, _):
    length = args["length"]
    tracer.count("language.windows",
                 sum(max(0, len(host) - length + 1) for host in result))


HOOKS = {
    "words.block": Hook(lambda t, a, r, _: t.count("words.symbols", len(r))),
    "words.word_prefix": Hook(lambda t, a, r, _: t.count("words.symbols", len(r))),
    "language.language": Hook(_after_language,
                              lambda t: _misses(_language_cache())),
    "language.enclosing_words": Hook(_after_enclosing),
    "repetitivity.repetitivity_oracle": Hook(
        lambda t, a, r, _: t.count("repetitivity.oracle_calls")),
    "spectral.lyapunov_estimate": Hook(
        lambda t, a, r, _: t.count("spectral.cocycle_steps", a["n"])),
    "spectral.transfer_cocycle": Hook(
        lambda t, a, r, _: t.count("spectral.cocycle_steps", a["n"])),
    "spectral.finite_section_spectrum": Hook(
        lambda t, a, r, _: t.count("spectral.section_bytes", 8 * a["size"] ** 2)),
}


def main():
    record_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return toeplitz.cli.main(argv)  # wrapped: the root span
    finally:
        record = {
            "t_start": T_START,
            "t_imported": T_IMPORTED,
            "t_main_end": time.monotonic(),
            "spans": tracer.spans,
            "counters": tracer.counters,
            "caches": {
                "coding": tracer.cache_totals(
                    tracer.originals.get("coding.tail_alphabet"),
                    tracer.originals.get("coding.kappa")),
                "language": tracer.cache_totals(_language_cache()),
            },
        }
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
