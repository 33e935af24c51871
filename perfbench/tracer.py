"""In-memory span tracer that instruments a program from outside.

`Tracer.wrap` replaces a name where its caller looks it up (a module
attribute or a class method) with a wrapper that records one span per call:
name, start, end, parent span and the request it belongs to.  Spans stay in
memory until `write_jsonl`.  Leaving the `with` block restores every wrapped
name, in reverse order, whether or not the block raised.

A span's self time is its duration minus the time covered by its direct
child spans, so the self times of one request add up to its traced time.
"""

from __future__ import annotations

import functools
import json
import time

_MISSING = object()


class Tracer:
    def __init__(self):
        self.request = None      # identifier shared by the spans of a request
        self.spans = []          # (request, id, parent, name, start, end, counts)
        self.self_s = {}         # span name -> summed self time
        self.total_s = {}        # span name -> summed time of outermost spans
        self.calls = {}          # span name -> number of spans
        self.counts = {}         # counter name -> summed value
        self._stack = []         # open spans: [id, name, start, child time]
        self._started = 0
        self._depth = {}         # span name -> open spans of that name
        self._patches = []       # (owner, attribute, original or _MISSING)
        self._origin = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- instrumentation -------------------------------------------------

    def wrap(self, owner, attr, name, count=None):
        """Trace calls of `owner.attr` as spans called `name`.

        `name` may be a function of the call's positional arguments.
        `count(args, result)` returns counter increments for the call.
        A method inherited by a class is wrapped on that class and removed
        again on restore, so the base class is never touched.
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(*args) if callable(name) else name
            tracer._open(span_name)
            result = _MISSING
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                counts = None
                if count is not None and result is not _MISSING:
                    counts = count(args, result)
                tracer._close(counts)

        self._patches.append((owner, attr, own))
        setattr(owner, attr, traced)

    def restore(self):
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        self._stack.append([self._started, name, time.perf_counter(), 0.0])
        self._started += 1
        self._depth[name] = self._depth.get(name, 0) + 1

    def _close(self, counts):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if counts:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
        self.spans.append((self.request, sid, parent, name,
                           start - self._origin, end - self._origin, counts))

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for req, sid, parent, name, start, end, counts in self.spans:
                rec = {"request": req, "id": sid, "parent": parent,
                       "name": name, "start": start, "end": end}
                if counts:
                    rec["counts"] = counts
                f.write(json.dumps(rec) + "\n")
