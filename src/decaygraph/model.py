"""Full classifier assembly, training loop, evaluation and checkpoints.

The forward pass builds the bipartite graph of every positional time
step of the batch at once, then walks the steps. Steps with no observed
edge anywhere in the batch are skipped outright, so padding depth never
influences the output. From the second step on, node embeddings are
optionally fused with the codebook and patient states optionally attend
over their stored per-variable hidden states; the step's edge features
are then initialized and message passed, and each observed (patient, variable) pair's hidden
state is decayed and gate-merged with the fresh edge feature. The head
consumes the final patient embedding, the retrieved prototype, and the
mask-reweighted flattened hidden bank.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import codebook as cb
from . import graph as gr
from . import temporal as tp
from .autodiff import Tensor
from .data import Dataset, Episode
from .metrics import binary_report, multiclass_report
from .optim import Adam
from .rng import SplitMix64
from .temporal import DECAY_KERNELS


class ModelConfigError(ValueError):
    """Inconsistent model configuration."""


class CompatibilityError(ValueError):
    """Checkpoint and dataset disagree on variables or classes, or the
    checkpoint's parameters are missing, truncated or non-finite."""


class NonFiniteLossError(ValueError):
    """A training batch produced a NaN or infinite loss."""


@dataclass
class ModelConfig:
    hidden_dim: int = 16
    codebook_size: int = 4096
    n_layers: int = 2
    lr: float = 0.005
    batch_size: int = 256
    epochs: int = 30
    patience: int = 5
    decay_kernel: str = "mlp_exp"
    seed: int = 0
    n_classes: int = 2

    def validate(self) -> None:
        for name in ("hidden_dim", "codebook_size", "n_layers", "batch_size",
                     "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ModelConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ModelConfigError(f"lr must be positive, got {self.lr}")
        if self.n_classes < 2:
            raise ModelConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.decay_kernel not in DECAY_KERNELS:
            raise ModelConfigError(f"decay_kernel must be one of {DECAY_KERNELS}, "
                                   f"got {self.decay_kernel!r}")


@dataclass
class AblationFlags:
    use_tde: bool = True  # decay the hidden state before the gate
    use_sna: bool = True  # state-aware patient attention from step 2 on
    use_hvs: bool = True  # hidden variable states in the classifier input
    use_cb: bool = True   # per-step codebook soft fusion
    use_mcv: bool = True  # retrieved prototype in the classifier input
    use_te: bool = True   # time embedding component of edge features

    @property
    def retrieval_active(self) -> bool:
        # no codebook, nothing to retrieve from
        return self.use_mcv and self.use_cb


class DecayGraphClassifier:
    """Bipartite-graph classifier over irregular multivariate episodes."""

    def __init__(self, config: ModelConfig, flags: AblationFlags, variables: list[str]):
        config.validate()
        if not variables:
            raise ModelConfigError("variable list must be non-empty")
        self.config = config
        self.flags = flags
        self.variables = list(variables)
        self.params = self._init_params()

    # -- parameters ------------------------------------------------------

    def _init_params(self) -> dict[str, Tensor]:
        cfg = self.config
        d = cfg.hidden_dim
        v_count = len(self.variables)
        rng = SplitMix64(cfg.seed).fork("params")
        params: dict[str, Tensor] = {}

        def weight(name: str, shape: tuple, fan_in: int) -> None:
            bound = 1.0 / np.sqrt(fan_in)
            params[name] = Tensor(rng.uniform_array(shape, -bound, bound), tracked=True)

        def bias(name: str, shape: tuple) -> None:
            params[name] = Tensor(np.zeros(shape), tracked=True)

        weight("edge.value_w", (1, d), 1)
        bias("edge.value_b", (d,))
        weight("edge.time_freq", (1, d), 1)
        bias("edge.time_phase", (d,))
        weight("edge.var_table", (v_count, d), d)
        weight("node.var_table", (v_count, d), d)
        for layer in range(cfg.n_layers):
            weight(f"sage{layer}.msg_w", (2 * d, d), 2 * d)
            bias(f"sage{layer}.msg_b", (d,))
            weight(f"sage{layer}.node_w", (2 * d, d), 2 * d)
            bias(f"sage{layer}.node_b", (d,))
            weight(f"sage{layer}.edge_w", (3 * d, d), 3 * d)
            bias(f"sage{layer}.edge_b", (d,))
        weight("decay.w1", (d, d), d)
        bias("decay.b1", (d,))
        weight("decay.w2", (d, 1), d)
        bias("decay.b2", (1,))
        bias("decay.rate_raw", (1, 1))
        weight("gate.w", (2 * d, d), 2 * d)
        bias("gate.b", (d,))
        weight("attn.proj", (d, d), d)
        weight("codebook", (cfg.codebook_size, d), d)

        z_dim = self.head_input_dim()
        weight("head.w1", (z_dim, 2 * d), z_dim)
        bias("head.b1", (2 * d,))
        weight("head.w2", (2 * d, cfg.n_classes), 2 * d)
        bias("head.b2", (cfg.n_classes,))
        return params

    def head_input_dim(self) -> int:
        d = self.config.hidden_dim
        dim = d
        if self.flags.retrieval_active:
            dim += d
        if self.flags.use_hvs:
            dim += len(self.variables) * d
        return dim

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, data in snapshot.items():
            self.params[name].data = data.copy()

    # -- forward -----------------------------------------------------------

    def forward(self, episodes: list[Episode],
                collect_diagnostics: bool = False) -> tuple[Tensor, dict]:
        if not episodes:
            raise ModelConfigError("forward needs a non-empty batch")
        cfg = self.config
        flags = self.flags
        d = cfg.hidden_dim
        v_count = len(self.variables)
        batch = len(episodes)
        for ep in episodes:
            if ep.mask.shape[1] != v_count:
                raise ModelConfigError(f"episode {ep.patient_id!r} has "
                                       f"{ep.mask.shape[1]} variables, model expects {v_count}")

        v_pat = gr.init_patient_states(batch, d)
        v_var = self.params["node.var_table"]
        book = self.params["codebook"]
        # normalized once, shared by every fusion and the retrieval below
        unit_book = cb.unit_rows(book.data) if flags.use_cb else None
        h_bank = Tensor(np.zeros((batch * v_count, d)))
        # per-prototype sum of fusion weights over every fused row, for
        # the utilization diagnostic
        diagnostics: dict = ({"fusion_weight_sum": np.zeros(cfg.codebook_size),
                              "fusion_rows": 0} if collect_diagnostics else {})

        for t, step in enumerate(gr.build_graph_steps(episodes, v_count)):
            if step.n_edges == 0:
                continue
            if t >= 1:
                if flags.use_cb:
                    v_pat, w_pat = cb.soft_fuse(v_pat, book, unit_book)
                    v_var, w_var = cb.soft_fuse(v_var, book, unit_book)
                    if collect_diagnostics:
                        for w in (w_pat, w_var):
                            diagnostics["fusion_weight_sum"] += w.sum(axis=0)
                            diagnostics["fusion_rows"] += w.shape[0]
                if flags.use_sna:
                    v_pat = tp.node_attention(v_pat, h_bank, self.params["attn.proj"])

            e = gr.init_edge_embeddings(step, self.params, use_time_embedding=flags.use_te)
            v_pat, v_var, e = gr.message_pass(step, v_pat, v_var, e,
                                              self.params, cfg.n_layers)

            flat_idx = step.patient_idx * v_count + step.variable_idx
            h_rows = ad.gather_rows(h_bank, flat_idx)
            if flags.use_tde:
                gamma = tp.decay_factor(e, step.delta_t, cfg.decay_kernel, self.params)
                h_hat = ad.mul(h_rows, gamma)
            else:
                h_hat = h_rows
            h_new = tp.gated_update(e, h_hat, self.params)
            h_bank = ad.scatter_rows(h_bank, flat_idx, h_new)

        if collect_diagnostics:
            diagnostics["hidden_bank"] = h_bank.data.reshape(batch, v_count, d).copy()
        parts = [v_pat]
        if flags.retrieval_active:
            _, rows = cb.retrieve(v_pat, book, unit_book)
            parts.append(rows)
        if flags.use_hvs:
            counts = np.stack([ep.variable_counts() for ep in episodes])
            parts.append(head_reweight(h_bank, counts, batch, v_count, d))
        hidden = ad.relu(ad.linear(parts, self.params["head.w1"], self.params["head.b1"]))
        logits = ad.linear([hidden], self.params["head.w2"], self.params["head.b2"])
        return logits, diagnostics

    def predict_proba(self, episodes: list[Episode],
                      collect_diagnostics: bool = False) -> tuple[np.ndarray, dict]:
        """Class probabilities; builds no autodiff graph."""
        with ad.no_grad():
            logits, diagnostics = self.forward(episodes, collect_diagnostics)
            return ad.softmax(logits).data, diagnostics


def head_reweight(h_bank: Tensor, counts: np.ndarray, batch: int,
                  v_count: int, dim: int) -> Tensor:
    """Boost each variable's state by its softmax-normalized observation count."""
    weights = ad.softmax(Tensor(counts.astype(np.float64)))
    bank3 = ad.reshape(h_bank, (batch, v_count, dim))
    boosted = ad.add(bank3, ad.mul(bank3, ad.reshape(weights, (batch, v_count, 1))))
    return ad.reshape(boosted, (batch, v_count * dim))


def batch_loss(model: DecayGraphClassifier, episodes: list[Episode]) -> Tensor:
    logits, _ = model.forward(episodes)
    return ad.cross_entropy(logits, [ep.label for ep in episodes])


# -- evaluation --------------------------------------------------------------

def evaluate(model: DecayGraphClassifier, dataset: Dataset,
             collect_diagnostics: bool = False) -> dict:
    """Metrics over a dataset, batched in deterministic order.

    A patient's probability depends on the other episodes in its batch,
    since every step's variable nodes are shared by the whole batch (the
    bipartite design). A score is therefore defined by the model's
    ``batch_size`` and the order of ``dataset.episodes``.
    """
    if not dataset.episodes:
        raise ModelConfigError("evaluate needs a non-empty dataset")
    probs_chunks = []
    weight_sum = np.zeros(model.config.codebook_size)
    fused_rows = 0
    bs = model.config.batch_size
    for start in range(0, len(dataset.episodes), bs):
        chunk = dataset.episodes[start:start + bs]
        probs, diagnostics = model.predict_proba(chunk, collect_diagnostics)
        probs_chunks.append(probs)
        if collect_diagnostics:
            weight_sum += diagnostics["fusion_weight_sum"]
            fused_rows += diagnostics["fusion_rows"]
    probs = np.concatenate(probs_chunks, axis=0)
    labels = np.asarray([ep.label for ep in dataset.episodes])

    if model.config.n_classes == 2:
        report = binary_report(probs[:, 1], labels).to_dict()
    else:
        report = multiclass_report(probs, labels)
    if fused_rows:
        report["codebook_utilization"] = cb.utilization(weight_sum, fused_rows)
    return report


# -- training -----------------------------------------------------------------

def fit(model: DecayGraphClassifier, train: Dataset, val: Dataset) -> dict:
    """Adam training with early stopping on the validation monitor.

    The monitor is AUPRC for binary tasks and accuracy otherwise. The
    best-monitor parameter snapshot is restored into the model before
    returning. Fully deterministic for a fixed config seed. A NaN or
    infinite batch loss stops training with :class:`NonFiniteLossError`.
    A binary validation split with no positive episode is refused (AUPRC
    is undefined); one with no negative trains, recording ``val_auroc`` None.
    """
    if not train.episodes or not val.episodes:
        raise ModelConfigError("training needs non-empty train and val splits")
    cfg = model.config
    monitor_key = "auprc" if cfg.n_classes == 2 else "accuracy"
    if monitor_key == "auprc" and not any(ep.label == 1 for ep in val.episodes):
        raise ModelConfigError(f"validation split has no positive episode among "
                               f"{len(val.episodes)}, so its AUPRC monitor is undefined")
    optimizer = Adam(model.params, lr=cfg.lr)
    shuffle_rng = SplitMix64(cfg.seed).fork("batch-order")

    best_snapshot = model.snapshot()
    best_metric = -np.inf
    best_epoch = 0
    epochs_without_improvement = 0
    history = []

    for epoch in range(1, cfg.epochs + 1):
        order = list(range(len(train.episodes)))
        shuffle_rng.fork(f"epoch:{epoch}").shuffle(order)
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            chunk = [train.episodes[i] for i in order[start:start + cfg.batch_size]]
            ad.zero_grad(model.params.values())
            loss = batch_loss(model, chunk)
            if not np.isfinite(loss.item()):
                raise NonFiniteLossError(f"loss {loss.item()} at epoch {epoch}, batch "
                                         f"{start // cfg.batch_size + 1}")
            ad.backward(loss)
            optimizer.step()
            losses.append(loss.item())

        val_report = evaluate(model, val)
        record = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        for key in ("auprc", "auroc", "accuracy"):
            if key in val_report:
                record[f"val_{key}"] = val_report[key]
        history.append(record)

        if val_report[monitor_key] > best_metric:
            best_metric = val_report[monitor_key]
            best_snapshot = model.snapshot()
            best_epoch = epoch
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
        if epochs_without_improvement >= cfg.patience:
            break

    model.restore(best_snapshot)
    return {"history": history, "best_epoch": best_epoch,
            "best_val_metric": float(best_metric), "monitor": monitor_key}


# -- checkpoints ----------------------------------------------------------------

CHECKPOINT_FORMAT = "decaygraph-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, model: DecayGraphClassifier,
                    norm_means: np.ndarray | None = None,
                    norm_stds: np.ndarray | None = None,
                    t_max: float | None = None) -> None:
    """Exact float64 serialization: shapes plus little-endian bytes."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "flags": asdict(model.flags),
        "variables": model.variables,
        "t_max": t_max,
        "norm_means": None if norm_means is None else list(map(float, norm_means)),
        "norm_stds": None if norm_stds is None else list(map(float, norm_stds)),
        "params": {
            name: {
                "shape": list(p.data.shape),
                "data": base64.b64encode(p.data.astype("<f8").tobytes()).decode("ascii"),
            }
            for name, p in model.params.items()
        },
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[DecayGraphClassifier, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CompatibilityError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CompatibilityError(f"unsupported checkpoint version {payload.get('version')}")
    config = ModelConfig(**payload["config"])
    flags = AblationFlags(**payload["flags"])
    model = DecayGraphClassifier(config, flags, payload["variables"])
    missing = sorted(set(model.params) - set(payload["params"]))
    if missing:
        raise CompatibilityError(f"checkpoint lacks parameters {missing}")
    for name, entry in payload["params"].items():
        if name not in model.params:
            raise CompatibilityError(f"checkpoint parameter {name!r} has no slot")
        shape = tuple(entry["shape"])
        if model.params[name].data.shape != shape:
            raise CompatibilityError(f"parameter {name!r} shape {shape} does not match "
                                     f"model shape {model.params[name].data.shape}")
        raw = base64.b64decode(entry["data"])
        if len(raw) != 8 * int(np.prod(shape)):
            raise CompatibilityError(f"parameter {name!r} has {len(raw)} bytes, shape "
                                     f"{shape} needs {8 * int(np.prod(shape))}")
        data = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(data)):
            raise CompatibilityError(f"parameter {name!r} has non-finite values")
        model.params[name].data = data.astype(np.float64)
    meta = {
        "t_max": payload.get("t_max"),
        "norm_means": None if payload.get("norm_means") is None
        else np.asarray(payload["norm_means"], dtype=np.float64),
        "norm_stds": None if payload.get("norm_stds") is None
        else np.asarray(payload["norm_stds"], dtype=np.float64),
    }
    return model, meta


def check_compatibility(model: DecayGraphClassifier, dataset: Dataset) -> None:
    if model.variables != dataset.variables:
        raise CompatibilityError(
            f"checkpoint variables {model.variables} do not match dataset "
            f"variables {dataset.variables}")
    if dataset.n_classes > model.config.n_classes:
        raise CompatibilityError(
            f"dataset has {dataset.n_classes} classes, checkpoint supports "
            f"{model.config.n_classes}")


# -- gradient checking ------------------------------------------------------------

def gradient_check(model: DecayGraphClassifier, episodes: list[Episode],
                   step: float = 1e-5, skip_below: float = 1e-8) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    Returns one entry per parameter block. Coordinates where both the
    analytic and numeric gradients are below ``skip_below`` are skipped.
    Only the analytic pass builds an autodiff graph.
    """
    if not step > 0:
        raise ModelConfigError(f"finite-difference step must be positive, got {step}")
    ad.zero_grad(model.params.values())
    ad.backward(batch_loss(model, episodes))
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in model.params.items()}

    errors: dict[str, float] = {}
    with ad.no_grad():
        for name, p in model.params.items():
            worst = 0.0
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                f_plus = batch_loss(model, episodes).item()
                flat[i] = original - step
                f_minus = batch_loss(model, episodes).item()
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * step)
                a = analytic[name].reshape(-1)[i]
                if abs(a) < skip_below and abs(numeric) < skip_below:
                    continue
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric)))
            errors[name] = worst
    return errors
