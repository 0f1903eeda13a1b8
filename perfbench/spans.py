"""In-memory span tracer for the per-layer run.

The tracer wraps the library's public functions at each module boundary
by patching the names where callers look them up: every attribute of a
loaded ``patchsmooth.*`` module that is the original function, or the
method on its class. Nothing under ``src/`` is edited, and ``uninstall``
puts every original back.

A span is (name, parent span id, op index, start, end). Spans and
counters live in memory; ``write`` dumps them once the run is over.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

SETUP_OP = -1


def current_rss_bytes() -> int:
    """Resident set size of this process right now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)  # (op, counter) -> value
        self.prompts: dict = defaultdict(set)  # op -> distinct synthetic prompts
        self.index_rss: list = []  # RSS growth of each index build, bytes
        self.op = SETUP_OP
        self._stack: list = []
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.op, name)] += value

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span; ``before``/``after`` see the call's arguments."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, parent, self.op, start, end)
                if after is not None:
                    after(args, kwargs, state)

        traced.__wrapped__ = fn
        return traced

    def counted(self, name: str, fn):
        """``fn`` with a call counter and no span (for very hot calls)."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    # -- patching --------------------------------------------------------

    def patch_function(self, module, attr: str, make):
        """Replace ``module.attr`` with ``make(original)`` in every loaded
        patchsmooth module that holds that same function object."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name == "patchsmooth" or name.startswith("patchsmooth.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._restore.append((mod, key, original))

    def patch_method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def install(self, ps, index_builders=()) -> None:
        """Wrap the layer boundaries of the imported ``patchsmooth`` package.

        ``index_builders`` are (owner, attr) pairs of functions that build
        a retrieval index from feature maps; their span also records how
        much resident memory the finished index added.
        """
        r, tf, pool, div, sm, met, pipe, sb = (
            ps.retrieval, ps.tensorfile, ps.pool, ps.divergence,
            ps.smoothing, ps.metrics, ps.pipeline, ps.synthbench,
        )

        def after_read(args, kwargs, state):
            path = args[0] if args else kwargs["path"]
            self.count("tensorfile.bytes_read", os.path.getsize(path))

        def after_write(args, kwargs, state):
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.count("tensorfile.bytes_written", os.path.getsize(path))

        def after_pairwise(args, kwargs, state):
            pool_arg = args[1] if len(args) > 1 else kwargs["pool"]
            self.count("divergence.pairs", len(pool_arg))

        def after_smooth(args, kwargs, state):
            pool_arg, config = args[1], args[2]
            per_patch = pool_arg.width
            if config.scope is sm.PoolScope.ALL_PATCH:
                per_patch *= pool_arg.patch_count
            self.count("smoothing.patches", pool_arg.patch_count)
            self.count("smoothing.candidates", per_patch * pool_arg.patch_count)

        def after_score(args, kwargs, state):
            self.count("pool.score_calls")

        def after_synth_score(args, kwargs, state):
            self.count("pool.score_calls")
            p = args[1]
            self.prompts[self.op].add((p.in_context_input, p.in_context_output, p.anchor))

        def rss_before(args, kwargs):
            return current_rss_bytes()

        def rss_after(args, kwargs, state):
            self.index_rss.append(current_rss_bytes() - state)

        fn = self.patch_function
        fn(r, "top_m", lambda f: self.wrap("retrieval.top_m", f))
        fn(tf, "read_tensor", lambda f: self.wrap("tensorfile.read_tensor", f, after=after_read))
        fn(tf, "write_tensor", lambda f: self.wrap("tensorfile.write_tensor", f, after=after_write))
        fn(pool, "build_pool", lambda f: self.wrap("pool.build_pool", f))
        fn(pool, "save_pool", lambda f: self.wrap("pool.save_pool", f))
        fn(pool, "load_pool", lambda f: self.wrap("pool.load", f))
        fn(pool, "load_grid", lambda f: self.wrap("pool.load", f))
        fn(div, "pairwise_divergence",
           lambda f: self.wrap("divergence.pairwise_divergence", f, after=after_pairwise))
        fn(sm, "smooth_grid", lambda f: self.wrap("smoothing.smooth_grid", f, after=after_smooth))
        fn(met, "decode_argmax", lambda f: self.wrap("metrics.decode_argmax", f))
        fn(pipe, "run_pipeline", lambda f: self.wrap("pipeline.run_pipeline", f))
        fn(sb, "generate_world", lambda f: self.wrap("synthbench.generate_world", f))
        fn(sb, "run_bias_experiment", lambda f: self.wrap("synthbench.run_bias_experiment", f))
        fn(sb, "run_seed_sweep", lambda f: self.wrap("synthbench.run_seed_sweep", f))

        meth = self.patch_method
        meth(pool.FileScorerBackend, "score",
             lambda f: self.wrap("pool.file_score", f, after=after_score))
        meth(sb.SyntheticScorerBackend, "score",
             lambda f: self.wrap("synthbench.score", f, after=after_synth_score))
        meth(sb.SyntheticWorld, "support_index",
             lambda f: self.wrap("retrieval.index_build", f, before=rss_before, after=rss_after))
        meth(div.CodebookDistribution, "__post_init__",
             lambda f: self.counted("divergence.distributions_built", f))
        for owner, attr in index_builders:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(
                "retrieval.index_build", original, before=rss_before, after=rss_after))
            self._restore.append((owner, attr, original))

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer figures over the timed ops (op index >= 0)."""
        total = defaultdict(float)
        covered = defaultdict(float)  # time inside child spans, by parent name
        builds = []
        for name, parent, op, start, end in self.spans:
            if name == "retrieval.index_build":
                builds.append(end - start)
            if op < 0:
                continue
            total[name] += end - start
            if parent is not None:
                covered[self.spans[parent][0]] += end - start

        counts = defaultdict(float)
        for (op, name), value in self.counts.items():
            if op >= 0:
                counts[name] += value
        prompts = sum(len(v) for op, v in self.prompts.items() if op >= 0)

        def per_op_ms(name, self_only=False):
            busy = total[name] - (covered[name] if self_only else 0.0)
            return 1e3 * busy / n_ops

        patches = counts["smoothing.patches"]
        return {
            "retrieval.top_m_ms": (per_op_ms("retrieval.top_m"), "ms"),
            "retrieval.index_build_s": (statistics.median(builds) if builds else 0.0, "s"),
            "retrieval.index_rss_mib": (max(self.index_rss, default=0) / 2**20, "MiB"),
            "tensorfile.read_ms": (per_op_ms("tensorfile.read_tensor"), "ms"),
            "tensorfile.write_ms": (per_op_ms("tensorfile.write_tensor"), "ms"),
            "tensorfile.bytes_read": (counts["tensorfile.bytes_read"] / n_ops, "bytes"),
            "tensorfile.bytes_written": (counts["tensorfile.bytes_written"] / n_ops, "bytes"),
            "pool.build_ms": (per_op_ms("pool.build_pool"), "ms"),
            "pool.file_score_ms": (per_op_ms("pool.file_score"), "ms"),
            "pool.save_ms": (per_op_ms("pool.save_pool"), "ms"),
            "pool.load_ms": (per_op_ms("pool.load"), "ms"),
            "pool.score_calls": (counts["pool.score_calls"] / n_ops, "count"),
            "synthbench.distinct_prompts": (prompts / n_ops, "count"),
            "synthbench.score_ms": (per_op_ms("synthbench.score"), "ms"),
            "synthbench.world_ms": (per_op_ms("synthbench.generate_world"), "ms"),
            "synthbench.experiment_self_ms": (
                per_op_ms("synthbench.run_bias_experiment", self_only=True), "ms"),
            "divergence.pairwise_ms": (per_op_ms("divergence.pairwise_divergence"), "ms"),
            "divergence.pairs": (counts["divergence.pairs"] / n_ops, "count"),
            "divergence.distributions_built": (
                counts["divergence.distributions_built"] / n_ops, "count"),
            "smoothing.smooth_grid_ms": (per_op_ms("smoothing.smooth_grid"), "ms"),
            "smoothing.self_ms": (per_op_ms("smoothing.smooth_grid", self_only=True), "ms"),
            "smoothing.candidates_per_patch": (
                counts["smoothing.candidates"] / patches if patches else 0.0, "count"),
            "metrics.decode_ms": (per_op_ms("metrics.decode_argmax"), "ms"),
            "pipeline.run_ms": (per_op_ms("pipeline.run_pipeline"), "ms"),
            "pipeline.self_ms": (per_op_ms("pipeline.run_pipeline", self_only=True), "ms"),
        }

    def write(self, path) -> None:
        """Dump every span and counter as gzipped JSON."""
        payload = {
            "span_fields": ["name", "parent", "op", "start_s", "end_s"],
            "spans": self.spans,
            "counts": [[op, name, value] for (op, name), value in sorted(self.counts.items())],
            "index_rss_bytes": self.index_rss,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
