"""Outside-in per-layer trace of nomafb.

``Tracer`` replaces the public callables each layer exposes, at the module
attribute its callers look up, with wrappers that record one span per call,
and puts the originals back on exit. Nothing under ``src/`` is edited. Spans
stay in memory; ``write_spans`` saves them once the run is over.
"""

import contextlib
import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import Counter, namedtuple

from workloads import CHUNK

# (module, attribute, layer). Each wrapper sits where the caller looks the
# name up: harness imports the channel and quantizer functions by name, and
# reaches alloc through the module.
TARGETS = (
    ("nomafb.harness", "sample_block", "channel"),
    ("nomafb.harness", "rate_levels", "quantizer"),
    ("nomafb.harness", "outage_levels", "quantizer"),
    ("nomafb.harness", "vle_lengths", "quantizer"),
    ("nomafb.harness", "rate_loss_bound", "evaluator"),
    ("nomafb.alloc", "batch_max_min_rate", "alloc"),
    ("nomafb.alloc", "sic_snr", "alloc"),
    ("nomafb.alloc", "sic_rates", "alloc"),
    ("nomafb.cli", "parse_config", "cli"),
    ("nomafb.cli", "run_experiment", "harness"),
    ("nomafb.cli", "render_csv", "cli"),
)

# The layers that do the harness's work on its worker threads.
WORK_LAYERS = ("channel", "quantizer", "alloc", "evaluator")

# info: (seed, block, bytes computed) for sample_block, iterations for the
# bisection, None otherwise.
Span = namedtuple("Span", "id name layer start end parent thread info")


def _sample_info(result, params, master, block_index, count=None):
    # sample_block draws all CHUNK rows of a block before it slices off count.
    return (master, block_index, CHUNK * result.shape[1] * result.itemsize)


def _bisect_info(result, *args, **kwargs):
    return result[1]


INFO = {"sample_block": _sample_info, "batch_max_min_rate": _bisect_info}


class Tracer:
    """Context manager that wraps every target while it is open."""

    def __init__(self):
        self.spans = []
        self.pools = 0  # ThreadPoolExecutors built
        self._ids = itertools.count(1)
        self._stacks = {}  # thread ident -> ids of its open spans
        self._main = None
        self._saved = []

    def __enter__(self):
        self._main = threading.get_ident()
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if getattr(original, "__wrapped__", None) is not None:
                    raise RuntimeError("%s.%s is already wrapped" % (module_name, attr))
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, attr, layer))
            harness = importlib.import_module("nomafb.harness")
            self._saved.append((harness, "ThreadPoolExecutor", harness.ThreadPoolExecutor))
            harness.ThreadPoolExecutor = self._counting_pool(harness.ThreadPoolExecutor)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pools += 1  # pools are built on the main thread only
                super().__init__(*args, **kwargs)

        return CountingPool

    def _open(self, layer):
        """Push a span on this thread; returns (id, parent id)."""
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if not stack:
            # A pool thread's first span was caused by whatever the main
            # thread has open, which is blocked waiting for it.
            stack = self._stacks.get(self._main) or []
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        self._stacks[threading.get_ident()].append(sid)
        return sid, parent

    @contextlib.contextmanager
    def span(self, name, layer):
        """Record a span around the block; what it appends to the yielded list
        becomes the span's info."""
        sid, parent = self._open(layer)
        start = time.perf_counter_ns()
        info = []
        try:
            yield info
        finally:
            self._stacks[threading.get_ident()].pop()
            self.spans.append(Span(sid, name, layer, start, time.perf_counter_ns(), parent,
                                   threading.get_ident(), info[0] if info else None))

    def _wrap(self, fn, name, layer):
        info_fn = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as info:
                result = fn(*args, **kwargs)
                if info_fn is not None:
                    info.append(info_fn(result, *args, **kwargs))
            return result

        return wrapper


def _outer(spans):
    """Spans not nested in a span of their own layer, so no time counts twice."""
    layer_of = {s.id: s.layer for s in spans}
    return [s for s in spans if layer_of.get(s.parent) != s.layer]


def layer_metrics(tracer, workers, sizes):
    """Per-layer metrics of one traced ``cli.main`` call.

    The benchmark opens a ``main`` span around the call; ``*_busy_frac`` and
    ``harness.self_frac`` are shares of workers x that span's wall time.
    sizes maps each sweep point of the call's output to its n.
    """
    spans = tracer.spans
    outer = _outer(spans)
    (main,) = [s for s in spans if s.name == "main"]
    wall = main.end - main.start
    capacity = workers * wall

    def pick(*names):
        return [s for s in spans if s.name in names]

    def busy(group):
        return sum(s.end - s.start for s in group)

    def per_call_ms(group):
        return busy(group) / len(group) / 1e6 if group else 0.0

    def layer_busy(layer):
        return busy([s for s in outer if s.layer == layer])

    blocks = pick("sample_block")
    levels = pick("rate_levels", "outage_levels")
    vle = pick("vle_lengths")
    bisect = pick("batch_max_min_rate")
    sic = pick("sic_snr", "sic_rates")
    (run,) = pick("run_experiment")
    parse, render = pick("parse_config"), pick("render_csv")
    work = sum(layer_busy(layer) for layer in WORK_LAYERS)
    run_ns = run.end - run.start
    # A sample of block b is kept when the blocks some sweep point kept, a
    # prefix, cover b; b cannot be kept more often than it was sampled.
    kept_blocks = [math.ceil(n / CHUNK) for n in sizes.values()]
    sampled = Counter(s.info[1] for s in blocks)
    kept = sum(min(n, sum(1 for k in kept_blocks if b < k)) for b, n in sampled.items())
    return {
        "channel.calls": len(blocks),
        "channel.unique_frac": len({s.info[:2] for s in blocks}) / len(blocks) if blocks else 0.0,
        "channel.ms_per_call": per_call_ms(blocks),
        "channel.busy_frac": layer_busy("channel") / capacity,
        "channel.bytes_computed": sum(s.info[2] for s in blocks),
        "quantizer.levels_calls": len(levels),
        "quantizer.levels_ms_per_call": per_call_ms(levels),
        "quantizer.vle_calls": len(vle),
        "quantizer.vle_ms_per_call": per_call_ms(vle),
        "quantizer.busy_frac": layer_busy("quantizer") / capacity,
        "alloc.bisect_calls": len(bisect),
        "alloc.bisect_iters": sum(s.info for s in bisect),
        "alloc.bisect_ms_per_call": per_call_ms(bisect),
        "alloc.sic_ms_per_call": per_call_ms(sic),
        "alloc.busy_frac": layer_busy("alloc") / capacity,
        "harness.pools": tracer.pools,
        "harness.chunks_scanned": len(blocks),
        "harness.kept_frac": kept / len(blocks) if blocks else 0.0,
        "harness.self_frac": (workers * run_ns - work) / capacity,
        "evaluator.calls": len(pick("rate_loss_bound")),
        "cli.parse_ms": busy(parse) / 1e6,
        "cli.render_ms": busy(render) / 1e6,
        "cli.self_frac": (wall - busy(parse) - busy(render) - run_ns) / wall,
    }


def write_spans(tracer, path):
    """Save the spans as JSON lines, times in ns from the first span's start."""
    t0 = min(s.start for s in tracer.spans)
    with open(path, "w") as fh:
        for s in sorted(tracer.spans, key=lambda s: s.start):
            fh.write(json.dumps(dict(s._asdict(), start=s.start - t0, end=s.end - t0)) + "\n")
