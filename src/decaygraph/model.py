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
mask-reweighted flattened hidden bank. ``forward`` is
``classify(encode(...))``: ``encode`` does everything up to the head's
input, and ``classify`` is the head.

Each layer call in ``encode`` (of ``graph``, ``temporal``, ``codebook``
and ``head_reweight``) returns its own autodiff node, whose parents are
the nodes and parameters the layer reads and whose rule calls the
layer's named backward (no node under ``no_grad``). ``autodiff.backward``
walks those nodes with the head's: its order fixes every gradient bit,
and a layer that does not reach the loss runs no rule.

What a forward and a loss need of a batch that no parameter changes is
built once per batch as a :class:`BatchPlan`: its graph steps, the
head's count weights and the one-hot labels. Every entry point takes a
plan or an episode list, which it plans first.
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
from .autodiff import ContractError, Tensor
from .data import Dataset, Episode, integral, positive, seed_value, write_json
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
        for name in ("hidden_dim", "codebook_size", "n_layers", "batch_size", "epochs",
                     "patience", "n_classes"):
            value = integral(getattr(self, name), name, ModelConfigError)
            setattr(self, name, value)
            if value < 1 and name != "n_classes":
                raise ModelConfigError(f"{name} must be >= 1, got {value}")
        self.seed = seed_value(self.seed, "seed", ModelConfigError)
        positive(self.lr, "lr", ModelConfigError)
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

    def validate(self) -> None:
        for name, value in asdict(self).items():
            if not isinstance(value, bool):
                raise ModelConfigError(f"ablation flag {name} must be true or false, "
                                       f"got {value!r}")

    @property
    def retrieval_active(self) -> bool:
        # no codebook, nothing to retrieve from
        return self.use_mcv and self.use_cb


class BatchPlan:
    """What a forward and a loss need of one batch that no parameter changes.

    ``steps`` are the batch's ``GraphStep``s, one per positional step;
    ``count_weights`` (B, V, 1) is the softmax over each episode's
    per-variable observation counts that ``head_reweight`` boosts the bank
    by; ``onehot`` are the labels as ``ad.one_hot`` rows. Building a plan
    checks everything that depends on the batch alone, in this order: each
    episode's variable count, the edge values (``graph.build_graph_steps``),
    the intervals' sign and the label range (each step lists a bank row at
    most once by construction). A plan holds no episode and no parameter;
    its caller owns it, and it lives as long as the caller keeps it.
    """

    def __init__(self, episodes: list[Episode], n_variables: int, n_classes: int):
        if not episodes:
            raise ModelConfigError("forward needs a non-empty batch")
        for ep in episodes:
            if ep.mask.shape[1] != n_variables:
                raise ModelConfigError(f"episode {ep.patient_id!r} has "
                                       f"{ep.mask.shape[1]} variables, model expects "
                                       f"{n_variables}")
        self.n_patients = len(episodes)
        self.n_variables, self.n_classes = n_variables, n_classes
        self.steps = gr.build_graph_steps(episodes, n_variables)
        for step in self.steps:
            if np.any(step.delta_t < 0):
                raise ContractError(f"delta_t must be non-negative, got min "
                                    f"{step.delta_t.min()}")
        self.count_weights = count_weights(np.stack([ep.mask.sum(axis=0)
                                                     for ep in episodes]))
        self.onehot = ad.one_hot([ep.label for ep in episodes], n_classes)


class DecayGraphClassifier:
    """Bipartite-graph classifier over irregular multivariate episodes."""

    def __init__(self, config: ModelConfig, flags: AblationFlags, variables: list[str]):
        config.validate()
        flags.validate()
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

    def plan(self, batch: BatchPlan | list[Episode]) -> BatchPlan:
        """``batch`` as a plan for this model: a plan as it is, an episode
        list planned, which checks it."""
        if not isinstance(batch, BatchPlan):
            return BatchPlan(batch, len(self.variables), self.config.n_classes)
        if (batch.n_variables, batch.n_classes) != (len(self.variables),
                                                    self.config.n_classes):
            raise ModelConfigError(f"batch plan for {batch.n_variables} variables and "
                                   f"{batch.n_classes} classes, model has "
                                   f"{len(self.variables)} and {self.config.n_classes}")
        return batch

    def forward(self, batch: BatchPlan | list[Episode],
                weight_sum: np.ndarray | None = None) -> Tensor:
        """Logits of a batch: ``classify(encode(...))``."""
        return self.classify(self.encode(batch, weight_sum))

    def encode(self, batch: BatchPlan | list[Episode],
               weight_sum: np.ndarray | None = None) -> list[Tensor]:
        """The head's input parts for a batch, each (B, ·): the patient
        embedding, then the retrieved prototype and the reweighted hidden
        bank when their flags are on.

        Walks the batch's graph steps, then retrieves the prototype and
        reweights the hidden bank; each layer call is one autodiff node.
        Reads no parameter in ``HEAD_BLOCKS``. Each codebook fusion adds its
        weights into ``weight_sum`` if given.
        """
        plan = self.plan(batch)
        cfg, flags, params = self.config, self.flags, self.params
        v_pat = gr.init_patient_states(plan.n_patients, cfg.hidden_dim)
        v_var = params["node.var_table"]
        book = params["codebook"]
        # normalized once, shared by every fusion and the retrieval below
        unit_book = cb.UnitBook(book.data) if flags.use_cb else None
        # every gate writes the (patient, variable) states in place
        bank = tp.Bank(Tensor(np.zeros((plan.n_patients * plan.n_variables, cfg.hidden_dim))))
        for t, step in enumerate(plan.steps):
            if step.n_edges == 0:
                continue
            if t >= 1:
                if flags.use_cb:
                    v_pat = cb.soft_fuse(v_pat, book, unit_book, weight_sum)
                    v_var = cb.soft_fuse(v_var, book, unit_book, weight_sum)
                if flags.use_sna:
                    v_pat = tp.node_attention(v_pat, bank, params["attn.proj"])
            e = gr.init_edge_embeddings(step, params, flags.use_te)
            v_pat, v_var, e = gr.message_pass(step, v_pat, v_var, e, params, cfg.n_layers)
            gamma = (tp.decay_factor(e, step.delta_t, cfg.decay_kernel, params)
                     if flags.use_tde else None)
            tp.gated_update(bank, step.bank_idx, e, params, gamma)

        parts = [v_pat]
        if flags.retrieval_active:
            parts.append(cb.retrieve(v_pat, book, unit_book))
        if flags.use_hvs:
            parts.append(head_reweight(bank.tensor, plan.count_weights))
        return parts

    # the only parameters ``classify`` reads, and the only ones ``encode`` does not
    HEAD_BLOCKS = ("head.w1", "head.b1", "head.w2", "head.b2")

    def classify(self, parts: list[Tensor]) -> Tensor:
        """Logits from the head's input parts: two ``linear`` layers, the
        first reading the parts side by side."""
        w1, b1, w2, b2 = (self.params[name] for name in self.HEAD_BLOCKS)
        hidden = ad.linear(parts, w1, b1, relu=True)
        return ad.linear([hidden], w2, b2)

    def predict_proba(self, batch: BatchPlan | list[Episode],
                      weight_sum: np.ndarray | None = None) -> np.ndarray:
        """Class probabilities; builds no autodiff graph."""
        with ad.no_grad():
            return ad._softmax(self.forward(batch, weight_sum).data)


def count_weights(counts: np.ndarray) -> np.ndarray:
    """(B, V, 1) softmax over each row of the (B, V) observation counts:
    ``head_reweight``'s weights."""
    return ad._softmax(counts.astype(np.float64)).reshape(*counts.shape, 1)


def head_reweight(h_bank: Tensor, weights: np.ndarray) -> Tensor:
    """Boost each variable's state by its weight, ``bank * (1 + w)`` as
    ``bank + bank * w``, as one node. ``weights`` (B, V, 1) are each
    episode's ``count_weights``, which a ``BatchPlan`` holds."""
    batch, v_count, _ = weights.shape
    bank3 = h_bank.data.reshape(batch, v_count, -1)
    return ad._make((bank3 + bank3 * weights).reshape(batch, -1), (h_bank,), "head_reweight",
                    lambda g: head_reweight_backward(g, h_bank, weights))


def head_reweight_backward(g: np.ndarray, h_bank: Tensor, weights: np.ndarray) -> None:
    """``head_reweight``'s rule: the sum's bank term, then the product's."""
    batch, v_count, _ = weights.shape
    g3 = g.reshape(batch, v_count, -1)
    ad._accumulate(h_bank, (g3 + g3 * weights).reshape(h_bank.shape))


def batch_loss(model: DecayGraphClassifier, batch: BatchPlan | list[Episode],
               parts: list[Tensor] | None = None) -> Tensor:
    """Mean cross-entropy of a batch, a plan or an episode list.

    Given ``parts``, the output of ``model.encode(batch)``, it runs only
    ``classify`` on them. Those parts are valid only for the same batch
    and for unchanged encoder parameters (every parameter outside
    ``HEAD_BLOCKS``); the caller must guarantee both.
    """
    plan = model.plan(batch)
    logits = model.forward(plan) if parts is None else model.classify(parts)
    return ad.cross_entropy(logits, plan.onehot)


# -- evaluation --------------------------------------------------------------

def evaluate(model: DecayGraphClassifier, dataset: Dataset,
             collect_diagnostics: bool = False) -> dict:
    """Metrics over a dataset, batched in deterministic order.

    A patient's probability depends on the other episodes in its batch,
    since every step's variable nodes are shared by the whole batch (the
    bipartite design). A score is therefore defined by the model's
    ``batch_size`` and the order of ``dataset.episodes``. With
    ``collect_diagnostics``, it gives the utilization of any fused rows.
    """
    if not dataset.episodes:
        raise ModelConfigError("evaluate needs a non-empty dataset")
    # per-prototype sum of fusion weights over every fused row
    weight_sum = np.zeros(model.config.codebook_size) if collect_diagnostics else None
    bs = model.config.batch_size
    probs = np.concatenate([model.predict_proba(dataset.episodes[start:start + bs], weight_sum)
                            for start in range(0, len(dataset.episodes), bs)], axis=0)
    labels = np.asarray([ep.label for ep in dataset.episodes])

    if model.config.n_classes == 2:
        report = binary_report(probs[:, 1], labels).to_dict()
    else:
        report = multiclass_report(probs, labels)
    if weight_sum is not None and weight_sum.any():  # a fused row adds positive weights
        report["codebook_utilization"] = cb.utilization(weight_sum)
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
            plan = model.plan([train.episodes[i] for i in order[start:start + cfg.batch_size]])
            ad.zero_grad(model.params.values())
            loss = batch_loss(model, plan)
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
    write_json(path, payload)


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
    meta = {"t_max": payload.get("t_max")}
    for key in ("norm_means", "norm_stds"):
        meta[key] = None if payload.get(key) is None else np.asarray(payload[key], np.float64)
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

# round-off dominates the relative error of gradients both below this
GRADCHECK_SKIP_BELOW = 1e-8


def gradient_check(model: DecayGraphClassifier, episodes: list[Episode],
                   step: float = 1e-5) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients.

    Returns one entry per parameter block. Coordinates where both
    gradients lie below ``GRADCHECK_SKIP_BELOW`` are skipped.
    A non-finite analytic or numeric derivative makes its block's error
    infinite. Only the analytic pass builds an autodiff graph.

    Every loss is a ``batch_loss`` call, two per coordinate, over one
    batch plan. The batch is encoded once more, under ``no_grad``, and the
    perturbed losses of the ``HEAD_BLOCKS`` coordinates reuse its
    parts: ``encode`` reads no head parameter, so each of those losses
    is the same float as a full forward's.
    """
    positive(step, "finite-difference step", ModelConfigError)
    plan = model.plan(episodes)
    ad.zero_grad(model.params.values())
    ad.backward(batch_loss(model, plan))
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in model.params.items()}

    errors: dict[str, float] = {}
    with ad.no_grad():
        parts = model.encode(plan)
        for name, p in model.params.items():
            reused = parts if name in model.HEAD_BLOCKS else None
            worst = 0.0
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                f_plus = batch_loss(model, plan, reused).item()
                flat[i] = original - step
                f_minus = batch_loss(model, plan, reused).item()
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * step)
                a = analytic[name].reshape(-1)[i]
                if abs(a) < GRADCHECK_SKIP_BELOW and abs(numeric) < GRADCHECK_SKIP_BELOW:
                    continue
                if not (np.isfinite(a) and np.isfinite(numeric)):
                    # max() would drop a NaN error
                    worst = float("inf")
                    continue
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric)))
            errors[name] = worst
    return errors
