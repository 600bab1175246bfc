"""Span tracing by wrapping the public functions of the trajlm modules.

The benchmark installs a Tracer around one traced round and removes it after.
Every public function defined in a trajlm module is replaced by a wrapper in
each module that binds its name (``scoring`` binds ``forward`` from ``model``,
``cli`` binds most of the package), so calls are caught however the caller
reached them. ``Session.push`` and ``AdamOptimizer.step`` are patched on their
classes. Spans (name, start, end, parent) stay in memory; self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

# Class methods traced under a layer name of their own.
METHODS = {
    ("online", "Session", "push"): "online.push",
    ("training", "AdamOptimizer", "step"): "training.adam_step",
}

# Per-layer metric groups: layer name -> span names (or name prefixes ending in "*").
GROUPS = {
    "synth.gen": ["synth.gen_*", "synth.inject_*"],
    "dataio.write": ["dataio.write_*"],
    "checkpoint.read": ["checkpoint.read_checkpoint"],
    "checkpoint.write": ["checkpoint.write_checkpoint"],
}


class Tracer:
    """Records nested spans and counters while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._session_prefix: dict[int, int] = {}
        self._prefixes: set[int] = set()

    # -- spans ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of benchmark code."""
        idx = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        rec = self.spans[idx]
        rec[1] = start
        rec[2] = end

    def wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [pkg] + [
            importlib.import_module(f"{pkg.__name__}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
        ]
        hooks = self._hooks()
        originals: dict[int, tuple[object, object]] = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                label = f"{short}.{attr}"
                originals[id(obj)] = (obj, self.wrap(label, obj, hooks.get(label)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        for (modname, cls, method), label in METHODS.items():
            owner = getattr(importlib.import_module(f"{pkg.__name__}.{modname}"), cls)
            original = owner.__dict__[method]
            self._patch(owner, method, self.wrap(label, original, hooks.get(label)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- counters recorded where the work happens --------------------------------

    def _hooks(self):
        c = self.counters
        pad_id = importlib.import_module(f"{self.package.__name__}.vocab").PAD_ID

        def forward_batch(args, kwargs, result):
            ids = args[1] if len(args) > 1 else kwargs["ids"]
            c["model.forward_batch.tokens"] += len(ids) * len(ids[0])

        def pad_batch(args, kwargs, result):
            c["training.pad_positions"] += int((result == pad_id).sum())
            c["training.positions"] += result.size

        def open_session(args, kwargs, result):
            ids = args[1] if len(args) > 1 else kwargs["conditioning_ids"]
            h = 0
            for token_id in ids:
                h = self._advance(h, int(token_id))
            self._session_prefix[id(result)] = h

        def push(args, kwargs, result):
            session, token_id = args[0], int(args[1])
            key = id(session)
            self._session_prefix[key] = self._advance(self._session_prefix.get(key, 0), token_id)

        return {
            "model.forward_batch": forward_batch,
            "training.pad_batch": pad_batch,
            "online.open_session": open_session,
            "online.push": push,
        }

    def _advance(self, prefix_hash: int, token_id: int) -> int:
        """Count one token fed to a session; distinct token prefixes are distinct work."""
        h = hash((prefix_hash, token_id))
        self.counters["online.tokens_advanced"] += 1
        self._prefixes.add(h)
        return h

    # -- results -----------------------------------------------------------------

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[i]
        return {k: tuple(v) for k, v in stats.items()}

    @staticmethod
    def group_stats(stats: dict, layer: str) -> tuple[int, float, float]:
        """(calls, total, self) of one per-layer metric group, from layer_stats()."""
        patterns = GROUPS.get(layer, [layer])
        calls, total, self_s = 0, 0.0, 0.0
        for name, (n, t, s) in stats.items():
            if any(name == p or (p.endswith("*") and name.startswith(p[:-1])) for p in patterns):
                calls += n
                total += t
                self_s += s
        return calls, total, self_s

    def count_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans with an `ancestor` span somewhere above them."""
        n = 0
        for rec in self.spans:
            if rec[0] != name:
                continue
            parent = rec[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    @property
    def distinct_prefixes(self) -> int:
        return len(self._prefixes)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")

