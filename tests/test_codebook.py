"""Soft codebook fusion, retrieval and the utilization diagnostic."""

import inspect
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decaygraph import autodiff as ad
from decaygraph import codebook as cb
from decaygraph.autodiff import ContractError, Tensor
import chain_ops as co
from test_autodiff import check_grads


def fuse_oracle(g, book):
    """Plain numpy re-derivation of the fusion update for one row."""
    eps_c, eps = cb.COSINE_EPS, cb.FUSION_EPS
    gn = g / (np.linalg.norm(g) + eps_c)
    cn = book / (np.linalg.norm(book, axis=1, keepdims=True) + eps_c)
    sims = cn @ gn
    w = np.exp(sims - sims.max())
    w /= w.sum()
    quant = w @ book
    alpha = np.linalg.norm(quant) / (np.linalg.norm(g) + eps)
    return g + alpha * quant, w


def fuse_with_weights(g, book):
    """Fused rows of one call and its per-prototype weight sums; for one
    row of ``g``, the sums are that row's weights."""
    weights = np.zeros(len(book))
    fused = cb.soft_fuse(Tensor(g), Tensor(book), cb.UnitBook(book), weights)
    return fused, weights


def fusion_weights(g, book):
    """The fusion weight matrix, one call per row of ``g``."""
    return np.stack([fuse_with_weights(row[None, :], book)[1] for row in g])


def test_single_prototype_degenerate_softmax():
    g = np.array([[1.0, 2.0]])
    book = np.array([[3.0, -1.0]])
    fused, weights = fuse_with_weights(g, book)
    np.testing.assert_allclose(weights, [1.0], atol=1e-15)
    alpha = np.linalg.norm(book[0]) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data, g + alpha * book, atol=1e-12)


def test_identical_prototypes_mix_to_that_prototype():
    c = np.array([0.5, -0.25, 1.0])
    book = np.tile(c, (6, 1))
    g = np.array([[2.0, 0.0, -1.0]])
    fused, weights = fuse_with_weights(g, book)
    quant = weights @ book
    np.testing.assert_allclose(quant, c, atol=1e-12)
    alpha = np.linalg.norm(c) / (np.linalg.norm(g[0]) + cb.FUSION_EPS)
    np.testing.assert_allclose(fused.data[0], g[0] + alpha * c, atol=1e-12)


def test_hand_expanded_two_prototype_case():
    g = np.array([[1.0, 0.5]])
    book = np.array([[2.0, 0.0], [0.0, 1.0]])
    fused, weights = fuse_with_weights(g, book)
    expected, w_expected = fuse_oracle(g[0], book)
    np.testing.assert_allclose(weights, w_expected, atol=1e-9)
    np.testing.assert_allclose(fused.data[0], expected, atol=1e-9)


def test_fusion_weights_positive_and_normalized():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(7, 5))
    book = rng.normal(size=(12, 5))
    weights = fusion_weights(g, book)
    assert np.all(weights > 0.0)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    # one call over all rows sums the same weights
    np.testing.assert_allclose(fuse_with_weights(g, book)[1], weights.sum(axis=0), atol=1e-12)


def test_quantized_vector_in_convex_hull():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(4, 3))
    book = rng.normal(size=(5, 3))
    weights = fusion_weights(g, book)
    # membership certificate: the weights themselves are the hull coefficients
    quant = weights @ book
    for i in range(4):
        recon = sum(weights[i, k] * book[k] for k in range(5))
        np.testing.assert_allclose(quant[i], recon, atol=1e-12)
        assert np.all(weights[i] >= 0.0)
        assert weights[i].sum() == pytest.approx(1.0, abs=1e-12)


def test_fusion_equivariant_under_rotation():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 3))
    book = rng.normal(size=(6, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    base = cb.soft_fuse(Tensor(g), Tensor(book), cb.UnitBook(book))
    rotated = cb.soft_fuse(Tensor(g @ q), Tensor(book @ q), cb.UnitBook(book @ q))
    np.testing.assert_allclose(rotated.data, base.data @ q, atol=1e-9)


# The 16-node chain that ``soft_fuse`` replaces, kept as its oracle, with the
# two autodiff ops that only this chain used.

def div(a, b):
    def bw(g):
        if a.tracked:
            ad._accumulate(a, co.unbroadcast(g / b.data, a.shape))
        if b.tracked:
            ad._accumulate(b, co.unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return ad._make(a.data / b.data, (a, b), "div", bw)


def l2_norm(a):
    n = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))

    def bw(g):
        ad._accumulate(a, g * a.data / np.maximum(n, 1e-300))

    return ad._make(n, (a,), "l2_norm", bw)


def _row_normalize(x):
    return div(x, co.add(l2_norm(x), Tensor(cb.COSINE_EPS)))


def chain_soft_fuse(g, codebook):
    sims = co.matmul(_row_normalize(g), co.transpose_last2(_row_normalize(codebook)))
    weights = co.softmax(sims)
    quantized = co.matmul(weights, codebook)
    scale = div(l2_norm(quantized), co.add(l2_norm(g), Tensor(cb.FUSION_EPS)))
    return co.add(g, co.mul(scale, quantized)), weights.data.sum(axis=0)


def fused_soft_fuse(book):
    unit_book = cb.UnitBook(book.data)  # once for every call, as in the model

    def fuse(g, codebook):
        weight_sum = np.zeros(len(codebook.data))
        return cb.soft_fuse(g, codebook, unit_book, weight_sum), weight_sum
    return fuse


def run_fusion(make_fuse, g0, book0, out_weights, track):
    """Successive fusions sharing one codebook, then backward on a loss that
    also reads each output directly, the oldest added last so that the graph
    walk reaches it first. As in the model, backward then meets each call's
    input by another path before the call, and the chain sums the codebook
    gradient per call, newest call first. Returns every call's output and
    per-prototype weight sums, and the two inputs."""
    g = Tensor(g0.copy(), tracked=track != "codebook")
    book = Tensor(book0.copy(), tracked=track != "g")
    fuse = make_fuse(book)
    x, outs, weights = g, [], []
    for _ in out_weights:
        x, w = fuse(x, book)
        outs.append(x)
        weights.append(w)
    terms = [co.tensor_sum(co.mul(out, Tensor(r))) for out, r in zip(outs, out_weights)]
    loss = terms[-1]
    for term in reversed(terms[:-1]):
        loss = co.add(loss, term)
    ad.backward(loss)
    return outs, weights, g, book


# The tiled core (K > cb.TILE) rounds differently from the chain: its values,
# weight sums and gradients stay within this fraction of each oracle
# array's largest magnitude. Over 6000 random cases the median was 2e-16
# and the largest 7e-14, with d=1, where the unit-row gradients cancel.
TILED_RTOL = 1e-11


def same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def near(a, b):
    assert a.shape == b.shape
    assert np.abs(a - b).max() <= TILED_RTOL * np.abs(b).max(), np.abs(a - b).max()


def assert_like_chain(g0, book0, out_weights, track, assert_same):
    outs, weights, g, book = run_fusion(fused_soft_fuse, g0, book0, out_weights, track)
    chain_outs, chain_weights, chain_g, chain_book = run_fusion(
        lambda book: chain_soft_fuse, g0, book0, out_weights, track)
    for out, chain_out in zip(outs, chain_outs):
        assert_same(out.data, chain_out.data)
    for w, chain_w in zip(weights, chain_weights):
        assert_same(w, chain_w)
    for t, chain_t in ((g, chain_g), (book, chain_book)):
        assert (t.grad is None) == (not t.tracked) == (chain_t.grad is None)
        if t.tracked:
            assert_same(t.grad, chain_t.grad)


fusion_cases = dict(
    b=st.integers(1, 6), d=st.integers(1, 20), calls=st.integers(1, 3),
    track=st.sampled_from(["both", "g", "codebook"]),
    magnitude=st.sampled_from([1e-3, 1.0, 50.0]), zero_rows=st.booleans(),
    seed=st.integers(0, 2**16))


def fusion_case(b, k, d, calls, magnitude, zero_rows, seed):
    """Input rows, codebook and per-call loss weights of one fusion case."""
    rng = np.random.default_rng(seed)
    g0 = magnitude * rng.normal(size=(b, d))
    book0 = rng.normal(size=(k, d))
    if zero_rows:
        g0[0] = 0.0
        book0[-1] = 0.0
    return g0, book0, [rng.normal(size=(b, d)) for _ in range(calls)]


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 9), **fusion_cases)
def test_soft_fuse_is_one_node_with_the_chain_bits(b, k, d, calls, track, magnitude,
                                                   zero_rows, seed):
    g0, book0, out_weights = fusion_case(b, k, d, calls, magnitude, zero_rows, seed)
    assert_like_chain(g0, book0, out_weights, track, same_bits)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(5, 13), **fusion_cases)
def test_tiled_soft_fuse_matches_the_chain(b, k, d, calls, track, magnitude, zero_rows,
                                          seed):
    g0, book0, out_weights = fusion_case(b, k, d, calls, magnitude, zero_rows, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cb, "TILE", 4)  # two to four tiles, the last one partial or full
        assert_like_chain(g0, book0, out_weights, track, near)


def test_soft_fuse_matches_the_chain_at_model_size():
    # the default model's codebook (K=4096, d=16) takes the tiled core
    assert 4096 > cb.TILE
    rng = np.random.default_rng(7)
    out_weights = [rng.normal(size=(4, 16)) for _ in range(2)]
    assert_like_chain(rng.normal(size=(4, 16)), rng.normal(size=(4096, 16)),
                      out_weights, "both", near)


def test_soft_fuse_records_one_node():
    g = Tensor(np.ones((2, 3)), tracked=True)
    book = Tensor(np.eye(3), tracked=True)
    fused = cb.soft_fuse(g, book, cb.UnitBook(book.data))
    assert fused._op == "soft_fuse" and fused._parents == (g, book)


@pytest.mark.parametrize("k", [cb.TILE, 2 * cb.TILE], ids=["chain", "tiled"])
def test_no_b_by_k_array_outlives_a_fusion_forward(k):
    """What a tracked fusion call still holds when it returns, with the
    backward still to come, is under one B×K float64 array."""
    rng = np.random.default_rng(3)
    g = Tensor(rng.normal(size=(128, 16)), tracked=True)
    book = Tensor(rng.normal(size=(k, 16)), tracked=True)
    cb.soft_fuse(g, book, cb.UnitBook(book.data))  # the pool and one-time buffers
    unit_book = cb.UnitBook(book.data)
    tracemalloc.start()
    try:
        fused = cb.soft_fuse(g, book, unit_book)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fused.tracked
    assert kept < 128 * k * 8, kept


def two_fusions(fuse, k, seed=5):
    """A loss over two chained calls of ``fuse`` with a (k, 4) codebook, and
    the two tensors it differentiates."""
    rng = np.random.default_rng(seed)
    g = Tensor(rng.normal(size=(3, 4)), tracked=True)
    book = Tensor(rng.normal(size=(k, 4)), tracked=True)
    r = Tensor(rng.normal(size=(3, 4)))

    def loss():
        unit_book = cb.UnitBook(book.data)
        once = fuse(g, book, unit_book)
        twice = fuse(once, book, unit_book)
        return co.tensor_sum(co.mul(twice, r))

    return loss, [g, book]


def test_soft_fuse_gradients_match_finite_differences():
    check_grads(*two_fusions(cb.soft_fuse, 5), rtol=1e-5)


def test_tiled_soft_fuse_gradients_match_finite_differences(monkeypatch):
    monkeypatch.setattr(cb, "TILE", 4)  # K=10: tiles of 4, 4 and 2 prototypes
    check_grads(*two_fusions(cb.soft_fuse, 10), rtol=1e-5)


def tiled_core_from_source(source):
    """The tiled backward core compiled from ``source`` in the codebook's
    namespace."""
    namespace = dict(vars(cb))
    exec(source, namespace)
    return namespace["_tiled_core"]


def test_check_grads_catches_a_tiled_rule_without_its_row_term(monkeypatch):
    monkeypatch.setattr(cb, "TILE", 4)  # K=10: tiles of 4, 4 and 2 prototypes
    source = textwrap.dedent(inspect.getsource(cb._tiled_core))
    row_term = "d_s -= d_rowterm\n"
    assert source.count(row_term) == 1
    monkeypatch.setattr(cb, "_tiled_core", tiled_core_from_source(source))
    check_grads(*two_fusions(cb.soft_fuse, 10), rtol=1e-5)
    monkeypatch.setattr(cb, "_tiled_core",
                        tiled_core_from_source(source.replace(row_term, "\n")))
    with pytest.raises(AssertionError, match="gradient mismatch"):
        check_grads(*two_fusions(cb.soft_fuse, 10), rtol=1e-5)


def loop_jobs(job, items):
    return [job(item) for item in items]


def fuse_and_retrieve(g0, book0, r):
    """One fusion, a retrieval from its output and backward through the
    fusion: the output, weight sums, both gradients and the retrieved rows."""
    g, book = Tensor(g0.copy(), tracked=True), Tensor(book0.copy(), tracked=True)
    unit_book = cb.UnitBook(book.data)
    weight_sum = np.zeros(len(book0))
    out = cb.soft_fuse(g, book, unit_book, weight_sum)
    rows = cb.retrieve(out, book, unit_book)
    ad.backward(co.tensor_sum(co.mul(out, Tensor(r))))
    return out.data, weight_sum, g.grad, book.grad, rows.data


POOL_ROWS = 2 * cb.BLOCK_ROWS  # the fewest rows that take the pool


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, POOL_ROWS + cb.BLOCK_ROWS), k=st.integers(cb.TILE + 1, 3 * cb.TILE),
       d=st.integers(1, 20), seed=st.integers(0, 2**16))
@example(b=POOL_ROWS - 1, k=cb.TILE + 1, d=16, seed=0)
@example(b=POOL_ROWS, k=1500, d=16, seed=1)
@example(b=5 * cb.BLOCK_ROWS // 2, k=3 * cb.TILE, d=16, seed=2)
def test_pooled_jobs_keep_the_bits_of_a_plain_loop(b, k, d, seed):
    rng = np.random.default_rng(seed)
    g0, book0, r = rng.normal(size=(b, d)), rng.normal(size=(k, d)), rng.normal(size=(b, d))
    pooled = fuse_and_retrieve(g0, book0, r)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cb, "_run", loop_jobs)
        looped = fuse_and_retrieve(g0, book0, r)
    for got, want in zip(pooled, looped):
        same_bits(got, want)


def test_only_a_large_call_runs_its_jobs_on_the_pool(monkeypatch):
    if cb._pool()[0] is None:
        pytest.skip("one CPU or no OpenBLAS thread setter: every job runs on the caller")
    run, threads = cb._run, []

    def recording(job, items):
        def recorded(item):
            threads.append(threading.current_thread())
            return job(item)
        return run(recorded, items)

    monkeypatch.setattr(cb, "_run", recording)
    rng = np.random.default_rng(4)
    for b, on_pool in ((POOL_ROWS - 1, False), (POOL_ROWS, True)):
        threads.clear()
        fuse_and_retrieve(rng.normal(size=(b, 8)), rng.normal(size=(cb.TILE + 1, 8)),
                          rng.normal(size=(b, 8)))
        # forward and backward: two jobs each on the pool, else one
        assert len(threads) == (4 if on_pool else 2)
        assert all((t is not threading.current_thread()) == on_pool for t in threads)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a K <= TILE train step, then a K > TILE fusion, in a fresh interpreter
PIN_SCRIPT = f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import numpy as np
from probe import _blas_threads
from decaygraph import autodiff as ad, codebook as cb, model as md
from decaygraph.data import SyntheticConfig, synthesize
from decaygraph.optim import Adam

start = _blas_threads()
data = synthesize(SyntheticConfig(n_variables=3, n_episodes=4, decay_rates=[0.5, 1.0, 2.0],
                                  obs_per_episode=4.0, horizon=24.0))
model = md.DecayGraphClassifier(md.ModelConfig(hidden_dim=8, codebook_size=cb.TILE,
                                               batch_size=4), md.AblationFlags(),
                                data.variables)
ad.backward(md.batch_loss(model, data.episodes))
Adam(model.params).step()
print("concurrent.futures" in sys.modules, _blas_threads() == start)
rows = np.random.default_rng(0).normal(size=(2 * cb.BLOCK_ROWS, 8))
book = np.random.default_rng(1).normal(size=(cb.TILE + 1, 8))
cb.soft_fuse(ad.Tensor(rows), ad.Tensor(book), cb.UnitBook(book))
print(_blas_threads())
"""


@pytest.fixture(scope="module")
def pin_script_output():
    env = dict(os.environ, PYTHONPATH=str(Path(cb.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", PIN_SCRIPT], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_a_small_codebook_train_step_starts_no_pool_and_keeps_blas_threads(
        pin_script_output):
    assert pin_script_output[:2] == ["False", "True"]


def test_a_large_codebook_fusion_pins_openblas_to_one_thread(pin_script_output):
    if pin_script_output[2] == "None":
        pytest.skip("no OpenBLAS thread count symbol in this numpy")
    assert pin_script_output[2] == "1"


# one K=2048, B=256 fusion forward and backward in a fresh interpreter, which
# first restricts itself to the one CPU named by its argument, if any; it
# prints its CPU count, its pool's worker count and a digest of the output
# and both gradients
CPU_SCRIPT = """
import hashlib, os, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})
import numpy as np
from decaygraph import autodiff as ad, codebook as cb
rng = np.random.default_rng(5)
g = ad.Tensor(rng.normal(size=(256, 16)), tracked=True)
book = ad.Tensor(rng.normal(size=(2048, 16)), tracked=True)
out = cb.soft_fuse(g, book, cb.UnitBook(book.data))
out._backward(rng.normal(size=out.shape))  # the node's rule, given its gradient
digest = hashlib.sha256(out.data.tobytes() + g.grad.tobytes() + book.grad.tobytes())
print(len(os.sched_getaffinity(0)), cb._pool()[1], digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is not available on this platform")
def test_a_large_codebook_fusion_has_the_same_bits_on_one_cpu():
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one usable CPU: nothing to restrict")
    env = dict(os.environ, PYTHONPATH=str(Path(cb.__file__).resolve().parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-c", CPU_SCRIPT, *argv], env=env,
                              capture_output=True, text=True, check=True).stdout.split()

    whole, pinned = run(), run(str(min(cpus)))
    assert int(whole[0]) >= 2 and pinned[:2] == ["1", "1"]
    assert pinned[2] == whole[2]


def retrieved_index(row, book):
    """The index of the prototype ``retrieve`` picks for one row: the one
    codebook row its gradient reaches, whose data it returned."""
    book = Tensor(np.asarray(book, dtype=np.float64), tracked=True)
    rows = cb.retrieve(Tensor([row]), book, cb.UnitBook(book.data))
    ad.backward(co.tensor_sum(rows))
    (index,) = np.flatnonzero(book.grad.any(axis=1))
    np.testing.assert_array_equal(rows.data[0], book.data[index])
    return int(index)


def test_retrieve_self_match():
    book = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert retrieved_index([0.0, 2.0, 0.0], book) == 1


def test_retrieve_tie_breaks_low_index():
    book = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])  # identical best rows
    assert retrieved_index([3.0, 0.0], book) == 0


def test_retrieve_antisymmetric_under_negation():
    u = np.array([0.6, -0.8])
    book = np.stack([u, -u])
    assert retrieved_index(u, book) == 0
    assert retrieved_index(-u, book) == 1


def test_retrieve_scale_invariant():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(5, 4))
    book = rng.normal(size=(9, 4))
    base = [retrieved_index(row, book) for row in g]
    for scale in (0.01, 3.0, 1e4):
        assert [retrieved_index(scale * row, book) for row in g] == base


def test_retrieve_gradient_goes_to_selected_row_only():
    book = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), tracked=True)
    rows = cb.retrieve(Tensor([[2.0, 0.1]]), book, cb.UnitBook(book.data))
    assert rows._op == "retrieve" and rows._parents == (book,)
    ad.backward(co.tensor_sum(rows))
    np.testing.assert_array_equal(book.grad, [[1.0, 1.0], [0.0, 0.0]])


def test_utilization_uniform_weights():
    weights = np.full((10, 4), 0.25)
    # strict inequality fails everywhere
    assert cb.utilization(weights.sum(axis=0)) == 0.0


def test_utilization_single_hot_entry():
    weights = np.zeros((8, 4))
    weights[:, 0] = 1.0
    assert cb.utilization(weights.sum(axis=0)) == 0.25


def test_utilization_rejects_unnormalized_rows():
    for weight_sum in (np.full((3, 4), 0.25),              # 2-d: not summed over rows
                       np.zeros(4),                        # no row
                       np.full((3, 4), 0.3).sum(axis=0)):  # 3.6: not a whole row count
        with pytest.raises(ContractError):
            cb.utilization(weight_sum)
