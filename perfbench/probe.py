"""Run one decaygraph command in this process, timing its layers from outside.

Usage: python3 perfbench/probe.py <plain|trace> <trace-out.json> <run-id> <decaygraph args...>
       python3 perfbench/probe.py env

The package is imported unmodified and its public functions are
replaced, at every name the program calls them by, with wrappers that
record spans (name, start, end, parent, run id). ``cli`` imports
``fit``, ``evaluate``, ``load_dataset`` and others by name, so those
are patched on ``decaygraph.cli`` as well as on the defining module.

``plain`` wraps only the three top-level calls the end-to-end
throughput needs (``fit``, ``evaluate``, ``batch_loss``); ``trace``
wraps every layer boundary and also counts autodiff op calls and graph
nodes. Spans stay in memory and are written to ``trace-out.json`` when
the command ends. Nothing here writes into the command's own output
files, so traced and untraced runs produce the same bytes.
"""

from __future__ import annotations

import ctypes
import inspect
import json
import os
import platform
import sys
from collections import Counter
from time import perf_counter

import numpy as np

import decaygraph.autodiff as ad
import decaygraph.cli as cli
import decaygraph.codebook as cb
import decaygraph.data as data
import decaygraph.graph as gr
import decaygraph.model as md
import decaygraph.optim as optim
import decaygraph.temporal as tp

# (span name, objects holding the name, attribute)
PLAIN_SPANS = [
    ("model.fit", (md, cli), "fit"),
    ("model.evaluate", (md, cli), "evaluate"),
    ("model.batch_loss", (md,), "batch_loss"),
]

TRACE_SPANS = PLAIN_SPANS + [
    ("data.load", (data, cli), "load_dataset"),
    ("data.load", (data, cli), "load_split_manifest"),
    ("data.split_norm", (data, cli), "split_by_manifest"),
    ("data.split_norm", (data, cli), "split_dataset"),
    ("data.split_norm", (data, cli), "normalize_splits"),
    ("data.split_norm", (data, cli), "apply_normalization"),
    ("data.leave_out", (data, cli), "leave_variables_out"),
    ("model.init", (md.DecayGraphClassifier,), "__init__"),
    ("model.forward", (md.DecayGraphClassifier,), "forward"),
    ("model.gradient_check", (md, cli), "gradient_check"),
    ("model.checkpoint_save", (md, cli), "save_checkpoint"),
    ("model.checkpoint_load", (md, cli), "load_checkpoint"),
    ("graph.build_step", (gr,), "build_graph_step"),
    ("graph.edge_init", (gr,), "init_edge_embeddings"),
    ("graph.message_pass", (gr,), "message_pass"),
    ("codebook.soft_fuse", (cb,), "soft_fuse"),
    ("codebook.retrieve", (cb,), "retrieve"),
    ("temporal.decay", (tp,), "decay_factor"),
    ("temporal.decay", (tp,), "decay_state"),
    ("temporal.gate", (tp,), "gated_update"),
    ("temporal.attention", (tp,), "node_attention"),
    ("autodiff.backward", (ad,), "backward"),
    ("optim.step", (optim.Adam,), "step"),
    ("metrics.report", (md,), "binary_report"),
    ("metrics.report", (md,), "multiclass_report"),
]

# autodiff functions that are not ops
NOT_OPS = {"backward", "zero_grad"}


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.forward_depth = 0

    def timed(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if name == "graph.build_step":
                self.counts["graph.edges"] += result.n_edges
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def forward_scope(self, fn):
        """Track whether a forward pass is open, for nodes-per-step."""
        def wrapper(*args, **kwargs):
            self.forward_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.forward_depth -= 1
        wrapper.__wrapped__ = fn
        return wrapper

    def node_counter(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["autodiff.nodes"] += 1
            if self.forward_depth:
                self.counts["autodiff.forward_nodes"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, spans: list) -> None:
        for name, owners, attr in spans:
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    # a later version may drop or rename a helper; the
                    # layer then reads zero instead of failing the run
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                setattr(owner, attr, self.timed(name, original))

    def install_counters(self) -> None:
        for name, fn in list(vars(ad).items()):
            if (name.startswith("_") or name in NOT_OPS or not inspect.isfunction(fn)
                    or fn.__module__ != ad.__name__):
                continue
            setattr(ad, name, self.counted(f"autodiff.calls.{name}", fn))
        ad._make = self.node_counter(ad._make)
        cls = md.DecayGraphClassifier
        cls.forward = self.forward_scope(cls.forward)

    def dump(self, path: str, exit_code: int) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "run_id": self.run_id,
            "exit_code": exit_code,
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _blas_threads() -> int | None:
    """Thread count OpenBLAS uses in this process, as loaded by numpy."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Machine and library facts that a timing depends on."""
    mem_total_kb = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_total_kb = int(line.split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": mem_total_kb,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["env"]:
        print(json.dumps(environment(), sort_keys=True))
        return 0
    mode, out_path, run_id, command = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("plain", "trace"):
        raise SystemExit(f"probe mode must be env, plain or trace, got {mode!r}")
    tracer = Tracer(run_id)
    if mode == "trace":
        tracer.install_counters()
        tracer.install(TRACE_SPANS)
    else:
        tracer.install(PLAIN_SPANS)
    exit_code = 1
    try:
        exit_code = cli.main(command)
    finally:
        tracer.dump(out_path, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
