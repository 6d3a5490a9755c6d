"""Print what one training batch keeps alive from forward to backward.

Usage: python3 scripts/graph_memory.py [--top N]

Run from the root of a source checkout (``src/`` goes on the path). It
synthesizes the default synthetic set (``decaygraph synth``'s defaults),
splits and normalizes it as ``decaygraph train`` does, builds the default
model (K=4096, batch 256, d=16, 2 layers) and takes the first training
batch of epoch 1 in ``fit``'s order: 160 episodes. After one untimed
forward and backward, which make the process's one-time allocations, it
runs the batch's forward and loss under ``tracemalloc`` and prints the
bytes still allocated then, which the graph keeps until backward, in
total and by allocating line (the ``N`` largest). Then it runs backward
and prints backward's peak above those bytes. The numbers are Python
heap bytes, not RSS: they do not depend on the allocator or the host.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from decaygraph import autodiff as ad  # noqa: E402
from decaygraph.cli import DEFAULT_SYNTHETIC  # noqa: E402
from decaygraph.data import SyntheticConfig, normalize_splits, split_dataset, synthesize  # noqa: E402
from decaygraph.model import AblationFlags, DecayGraphClassifier, ModelConfig, batch_loss  # noqa: E402
from decaygraph.rng import SplitMix64  # noqa: E402


def graph_memory(synthetic: dict, model: dict, seed: int = 0) -> dict:
    """Bytes the first training batch's graph keeps until backward.

    ``synthetic`` holds ``SyntheticConfig`` fields and ``model`` holds
    ``ModelConfig`` fields other than ``seed``; ``seed`` seeds the split,
    the model and the batch order, as ``train --seed`` does. Returns
    ``kept`` (bytes allocated by the forward and loss and still alive),
    ``lines`` (``(file:line, bytes, blocks)`` for each allocating line of
    those bytes, largest first), ``backward_peak`` (backward's peak above
    ``kept``) and ``episodes`` (the batch size).
    """
    dataset = synthesize(SyntheticConfig(**synthetic))
    splits = normalize_splits(split_dataset(dataset, seed=seed))
    train = splits.train
    config = ModelConfig(**model, seed=seed,
                         n_classes=max(s.n_classes for s in (train, splits.val, splits.test)))
    classifier = DecayGraphClassifier(config, AblationFlags(), train.variables)
    order = list(range(len(train.episodes)))
    SplitMix64(seed).fork("batch-order").fork("epoch:1").shuffle(order)
    episodes = [train.episodes[i] for i in order[:config.batch_size]]

    ad.backward(batch_loss(classifier, episodes))  # one-time allocations stay out
    ad.zero_grad(classifier.params.values())
    tracemalloc.start()
    try:
        loss = batch_loss(classifier, episodes)
        kept = tracemalloc.get_traced_memory()[0]
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.reset_peak()
        ad.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - kept
    finally:
        tracemalloc.stop()
    lines = []
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        name = frame.filename
        if name.startswith(str(ROOT) + os.sep):
            name = os.path.relpath(name, ROOT)
        lines.append((f"{name}:{frame.lineno}", stat.size, stat.count))
    return {"kept": kept, "lines": lines, "backward_peak": backward_peak,
            "episodes": len(episodes)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=12, help="allocating lines to print")
    args = parser.parse_args(argv)
    config = ModelConfig()
    result = graph_memory(dict(DEFAULT_SYNTHETIC), {
        "hidden_dim": config.hidden_dim, "codebook_size": config.codebook_size,
        "n_layers": config.n_layers, "batch_size": config.batch_size})
    mb = 1e6
    print(f"first training batch of the default config: {result['episodes']} episodes")
    print(f"kept until backward: {result['kept'] / mb:.1f} MB (tracemalloc)")
    for line, size, count in result["lines"][:args.top]:
        print(f"  {size / mb:7.2f} MB  {count:6d} blocks  {line}")
    print(f"backward's peak above that: {result['backward_peak'] / mb:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
