"""The names the benchmark's probe wraps still exist in the package.

``perfbench/probe.py`` replaces functions by name and records a missing
one instead of failing, so a renamed or inlined function would make the
benchmark read 0 for its spans. ``work_per_s`` is read from the
``PLAIN_SPANS`` timings, and ``nodes_per_step`` from ``autodiff._make``.
"""

import importlib.util
from pathlib import Path

from decaygraph import autodiff as ad

PROBE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE_PATH)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def missing_names(spans):
    return {f"{owner.__name__.removeprefix('decaygraph.')}.{attr}"
            for _, owners, attr in spans for owner in owners
            if owner.__dict__.get(attr) is None}


def test_probe_finds_every_plain_span_and_the_node_hook():
    probe = load_probe()
    assert {attr for _, _, attr in probe.PLAIN_SPANS} == {"fit", "evaluate", "batch_loss"}
    assert missing_names(probe.PLAIN_SPANS) == set()
    assert callable(ad.__dict__.get("_make"))


def test_only_the_known_trace_spans_are_missing():
    probe = load_probe()
    assert missing_names(probe.TRACE_SPANS) == {"graph.build_graph_step",
                                                "temporal.decay_state"}
