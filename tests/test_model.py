import math

import numpy as np
import pytest

from trajlm.errors import ConfigError, DomainError
from trajlm.model import (
    KEY_CLASS,
    ModelConfig,
    backward,
    forward_batch,
    init_model,
    log_softmax,
    nll_loss,
    param_shapes,
    softmax,
)
from trajlm.training import BETA1, BETA2, CLIP_NORM, EPS, AdamOptimizer, TrainConfig, train
from trajlm.vocab import EncodedTrajectory

TINY = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=8, seed=27)


def tiny_model():
    return init_model(TINY)


def _logits(model, ids):
    """Logits of one id sequence, (seq_len, vocab_size): row 0 of a one-row forward_batch."""
    return forward_batch(model, np.asarray(ids)[None])[0][0]


def test_init_deterministic():
    a, b = tiny_model(), tiny_model()
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)


def test_init_divisibility_error():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=20, d_model=8, n_heads=3, n_layers=1, d_ff=8, max_seq_len=8, seed=0)


def test_param_shapes_closed_form():
    cfg = TINY
    # hand-computed shape arithmetic for the 2-layer config
    per_layer = 2 * cfg.d_model + 4 * cfg.d_model**2 + 2 * cfg.d_model \
        + cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_ff * cfg.d_model + cfg.d_model
    expected = (
        cfg.vocab_size * cfg.d_model
        + cfg.max_seq_len * cfg.d_model
        + cfg.n_layers * per_layer
        + 2 * cfg.d_model
        + cfg.d_model * cfg.vocab_size
    )
    assert sum(p.size for p in tiny_model().params.values()) == expected == 1536
    assert sum(int(np.prod(s)) for s in param_shapes(cfg).values()) == expected


def test_init_statistics():
    m = tiny_model()
    assert np.all(m.params["layers.0.ln1.g"] == 1.0)
    assert np.all(m.params["layers.0.ffn.b1"] == 0.0)
    assert abs(float(np.std(m.params["tok_emb"]))) < 0.05


# --- attention (activations collected by forward_batch) ----------------------

def _layers(model, ids):
    _, cache = forward_batch(model, np.asarray(ids), collect=True)
    return cache["layers"]


def _merge(h):
    b, n_heads, t, dh = h.shape
    return h.transpose(0, 2, 1, 3).reshape(b, t, n_heads * dh)


def test_attention_singleton_returns_value_row():
    for lc in _layers(tiny_model(), [[7]]):
        assert np.all(lc["attn"] == 1.0)
        assert np.allclose(lc["ctx"], _merge(lc["vh"]), rtol=1e-12, atol=0)


def test_attention_position_zero_sees_only_first_value():
    for lc in _layers(tiny_model(), [[3, 4, 5, 6]]):
        assert np.all(lc["attn"][:, :, 0, 0] == 1.0)
        assert np.all(lc["attn"][:, :, 0, 1:] == 0.0)
        assert np.allclose(lc["ctx"][:, 0], _merge(lc["vh"])[:, 0], rtol=1e-12, atol=0)


def test_attention_identical_keys_uniform_running_mean():
    m = tiny_model()
    for i in range(TINY.n_layers):
        m.params[f"layers.{i}.attn.wk"][:] = 0.0  # every key is the zero vector
    for lc in _layers(m, [[3, 4, 5, 6, 7]]):
        v = _merge(lc["vh"])[0]
        for i in range(5):
            assert np.allclose(lc["attn"][0, :, i, : i + 1], 1.0 / (i + 1), rtol=1e-12, atol=0)
            assert np.allclose(lc["ctx"][0, i], v[: i + 1].mean(axis=0), rtol=1e-12, atol=1e-15)


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(3)
    ids = rng.integers(1, TINY.vocab_size, size=(3, TINY.max_seq_len))
    above = ~np.tri(TINY.max_seq_len, dtype=bool)
    for lc in _layers(tiny_model(), ids):
        assert np.all(lc["attn"][..., above] == 0.0)
        assert np.allclose(lc["attn"].sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_attention_shape_mismatch():
    m = tiny_model()
    for ids in (np.array([3, 4]), np.ones((1, 2, 2), dtype=int)):
        with pytest.raises(DomainError):
            forward_batch(m, ids)


def _hand_attention(qh, kh, vh):
    """softmax(q k^T / sqrt(d_head)) v under the causal mask, one head at a time."""
    t, d_head = qh.shape
    scores = qh @ kh.T / math.sqrt(d_head)
    scores[~np.tri(t, dtype=bool)] = -np.inf
    w = np.exp(scores - scores.max(axis=1, keepdims=True))
    return (w / w.sum(axis=1, keepdims=True)) @ vh


def test_multi_head_single_head_reduces_to_attention():
    cfg = ModelConfig(vocab_size=20, d_model=6, n_heads=1, n_layers=2, d_ff=8, max_seq_len=8, seed=4)
    for lc in _layers(init_model(cfg), [[3, 4, 5, 6, 7]]):
        expected = _hand_attention(lc["qh"][0, 0], lc["kh"][0, 0], lc["vh"][0, 0])
        assert np.allclose(lc["ctx"][0], expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("h", [1, 2, 3, 6])
def test_multi_head_output_shape(h):
    cfg = ModelConfig(vocab_size=20, d_model=6, n_heads=h, n_layers=1, d_ff=8, max_seq_len=8, seed=5)
    (lc,) = _layers(init_model(cfg), [[3, 4, 5, 6]])
    assert lc["qh"].shape == (1, h, 4, 6 // h)
    assert lc["ctx"].shape == (1, 4, 6)
    for head in range(h):
        sl = slice(head * (6 // h), (head + 1) * (6 // h))
        expected = _hand_attention(lc["qh"][0, head], lc["kh"][0, head], lc["vh"][0, head])
        assert np.allclose(lc["ctx"][0, :, sl], expected, rtol=1e-12, atol=1e-15)


def test_multi_head_zero_output_projection():
    m = tiny_model()
    for i in range(TINY.n_layers):
        m.params[f"layers.{i}.attn.wo"][:] = 0.0
    ref = _logits(m, [3, 4, 5, 6])
    rng = np.random.default_rng(6)
    for i in range(TINY.n_layers):
        for w in ("wq", "wk", "wv"):
            m.params[f"layers.{i}.attn.{w}"] = rng.normal(size=(TINY.d_model, TINY.d_model))
    assert np.array_equal(_logits(m, [3, 4, 5, 6]), ref)


# --- feed-forward (activations collected by forward_batch) --------------------

def test_ffn_zeros():
    m = tiny_model()
    for i in range(TINY.n_layers):
        for name in ("w1", "b1", "w2", "b2"):
            m.params[f"layers.{i}.ffn.{name}"][:] = 0.0
    ref = _logits(m, [3, 4, 5])
    for lc in _layers(m, [[3, 4, 5]]):
        assert np.all(lc["relu"] == 0.0)
    m.params["layers.0.ffn.w2"][:] = 1.0  # multiplies all-zero activations
    assert np.array_equal(_logits(m, [3, 4, 5]), ref)


def test_ffn_relu_kills_negative_preactivations():
    m = tiny_model()
    for lc in _layers(m, [[3, 4, 5, 6]]):
        assert np.array_equal(lc["relu"], np.maximum(0.0, lc["pre_act"]))
        assert np.any(lc["pre_act"] < 0.0)
    for i in range(TINY.n_layers):
        m.params[f"layers.{i}.ffn.b1"][:] = -1e3
    for lc in _layers(m, [[3, 4, 5, 6]]):
        assert np.all(lc["relu"] == 0.0)


def test_ffn_scalar_hand_case():
    # With d_model 1 the layer norm input is centred to 0, so f equals ln2.b.
    cfg = ModelConfig(vocab_size=6, d_model=1, n_heads=1, n_layers=1, d_ff=1, max_seq_len=4, seed=0)
    m = init_model(cfg)
    m.params["layers.0.ln2.b"][:] = 0.5
    m.params["layers.0.ffn.w1"][:] = 2.0
    m.params["layers.0.ffn.b1"][:] = 1.0
    (lc,) = _layers(m, [[3, 4]])
    assert np.all(lc["f"] == 0.5)
    assert np.all(lc["pre_act"] == 2.0)  # 0.5 * 2 + 1
    assert np.all(lc["relu"] == 2.0)
    m.params["layers.0.ffn.b1"][:] = -2.0
    (lc,) = _layers(m, [[3, 4]])
    assert np.all(lc["relu"] == 0.0)  # max(0, 0.5 * 2 - 2)


# --- forward ---------------------------------------------------------------

def test_forward_causality_bit_exact():
    m = tiny_model()
    rng = np.random.default_rng(7)
    base = rng.integers(1, 20, size=6)
    ref = _logits(m, base)
    for j in range(1, 6):
        mutated = base.copy()
        mutated[j] = (mutated[j] % 19) + 1
        out = _logits(m, mutated)
        assert np.array_equal(ref[:j], out[:j])


def test_forward_softmax_normalization():
    m = tiny_model()
    logits = _logits(m, [3, 4, 5, 6])
    probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


def test_forward_deterministic():
    m = tiny_model()
    assert np.array_equal(_logits(m, [1, 2, 3]), _logits(m, [1, 2, 3]))


def test_forward_rejects_overlong_and_bad_ids():
    m = tiny_model()
    with pytest.raises(DomainError):
        _logits(m, list(range(1, 10)))
    with pytest.raises(DomainError):
        _logits(m, [1, 25])


def test_forward_positional_embeddings_are_live():
    m = tiny_model()
    a = _logits(m, [3, 4, 5])
    b = _logits(m, [5, 4, 3])
    assert not np.allclose(a[-1], b[-1])


def test_forward_padding_does_not_change_real_positions():
    m = tiny_model()
    ids = np.array([[3, 4, 5, 6]])
    padded = np.array([[3, 4, 5, 6, 0, 0]])
    a, _ = forward_batch(m, ids)
    b, _ = forward_batch(m, padded)
    assert np.allclose(a[0], b[0, :4], atol=1e-12)


# --- loss ------------------------------------------------------------------

def test_nll_uniform_logits_closed_form():
    logits = np.zeros((1, 4, 10))
    targets = np.array([[1, 2, 3, 4]])
    mask = np.ones_like(targets, dtype=bool)
    assert math.isclose(nll_loss(log_softmax(logits), targets, mask), math.log(10), rel_tol=1e-12)


def test_nll_confident_correct_logits_near_zero():
    logits = np.full((1, 2, 5), -1e4)
    logits[0, 0, 2] = 1e4
    logits[0, 1, 3] = 1e4
    loss = nll_loss(log_softmax(logits), np.array([[2, 3]]), np.ones((1, 2), bool))
    assert loss < 1e-8


def test_nll_two_position_hand_case():
    # independent scalar softmax arithmetic
    logits = np.array([[[1.0, 2.0, 0.0], [0.5, 0.0, -0.5]]])
    targets = np.array([[1, 2]])
    lse0 = math.log(math.exp(1) + math.exp(2) + 1)
    lse1 = math.log(math.exp(0.5) + 1 + math.exp(-0.5))
    expected = ((lse0 - 2.0) + (lse1 - (-0.5))) / 2
    assert math.isclose(nll_loss(log_softmax(logits), targets, np.ones((1, 2), bool)), expected, rel_tol=1e-12)


def test_nll_all_masked_is_an_error():
    with pytest.raises(DomainError):
        nll_loss(log_softmax(np.zeros((1, 2, 5))), np.array([[1, 2]]), np.zeros((1, 2), bool))


# --- backward --------------------------------------------------------------

def fd_check(model, ids, h=1e-5, floor=1e-6):
    loss, grads = backward(model, ids)

    def loss_at():
        logits, _ = forward_batch(model, ids[:, :-1])
        targets = ids[:, 1:]
        return nll_loss(log_softmax(logits), targets, targets != 0)

    worst = 0.0
    for name, p in model.params.items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            lp = loss_at()
            p[idx] = orig - h
            lm = loss_at()
            p[idx] = orig
            num = (lp - lm) / (2 * h)
            rel = abs(grads[name][idx] - num) / max(abs(grads[name][idx]), abs(num), floor)
            worst = max(worst, rel)
    return loss, worst


def test_backward_matches_finite_differences_small():
    cfg = ModelConfig(vocab_size=9, d_model=4, n_heads=2, n_layers=1, d_ff=6, max_seq_len=5, seed=1)
    m = init_model(cfg)
    ids = np.array([[3, 4, 5, 6], [7, 8, 3, 0]])
    _, worst = fd_check(m, ids)
    assert worst < 1e-4


def test_backward_pad_positions_get_zero_gradient():
    m = tiny_model()
    ids = np.array([[3, 4, 5, 0, 0]])
    _, grads = backward(m, ids)
    assert np.all(grads["tok_emb"][0] == 0.0)  # PAD embedding never learns


def test_backward_unused_parameters_get_zero_gradient():
    m = tiny_model()
    ids = np.array([[3, 4, 5]])
    _, grads = backward(m, ids)
    used = {3, 4}  # inputs are ids[:, :-1]
    for tok in range(20):
        if tok not in used:
            assert np.all(grads["tok_emb"][tok] == 0.0)
    assert np.all(grads["pos_emb"][2:] == 0.0)


def test_backward_loss_matches_forward_loss():
    m = tiny_model()
    ids = np.array([[3, 4, 5, 6, 2]])
    loss, _ = backward(m, ids)
    logits, _ = forward_batch(m, ids[:, :-1])
    assert math.isclose(loss, nll_loss(log_softmax(logits), ids[:, 1:], ids[:, 1:] != 0), rel_tol=1e-12)


def _padded(rows, width):
    out = np.zeros((len(rows), width), dtype=np.int64)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out


PACK = ModelConfig(vocab_size=11, d_model=6, n_heads=2, n_layers=2, d_ff=8, max_seq_len=9, seed=8)


def _mixed_rows(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [[int(x) for x in rng.integers(1, PACK.vocab_size, size=n)] for n in lengths]


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / max(np.linalg.norm(b), 1e-300))


def test_backward_packed_matches_finite_differences_with_trailing_pads():
    cfg = ModelConfig(vocab_size=9, d_model=4, n_heads=2, n_layers=2, d_ff=6, max_seq_len=7, seed=2)
    m = init_model(cfg)
    ids = _padded([[3, 4, 5, 6, 7, 8, 3, 4], [5, 3, 8, 7, 6, 4], [6, 8, 5]], 8)  # 0, 2 and 5 PADs
    _, worst = fd_check(m, ids)
    assert worst < 1e-4


def test_backward_of_a_padded_batch_is_the_scored_count_weighted_mean_of_its_rows():
    m = init_model(PACK)
    rows = _mixed_rows([10, 4, 7, 2, 9])
    loss, grads = backward(m, _padded(rows, 10))
    counts = np.array([len(r) - 1 for r in rows], dtype=float)
    weights = counts / counts.sum()
    per_row = [backward(m, np.array([r])) for r in rows]
    assert _rel(loss, sum(w * l for w, (l, _) in zip(weights, per_row))) < 1e-12
    for name in grads:
        expected = sum(w * g[name] for w, (_, g) in zip(weights, per_row))
        assert _rel(grads[name], expected) < 1e-12, name


def test_backward_ignores_all_pad_columns():
    m = init_model(PACK)
    rows = _mixed_rows([6, 3, 5], seed=1)
    loss, grads = backward(m, _padded(rows, 6))
    wide_loss, wide_grads = backward(m, _padded(rows, 10))
    assert _rel(wide_loss, loss) < 1e-12
    for name in grads:
        assert _rel(wide_grads[name], grads[name]) < 1e-12, name


def test_backward_rejects_a_pad_before_a_real_id():
    with pytest.raises(DomainError, match="row 1 has a PAD at position 1"):
        backward(tiny_model(), np.array([[3, 4, 5, 6], [3, 0, 5, 0]]))


def test_forward_batch_keep_is_a_row_prefix_without_a_cache():
    m = tiny_model()
    ids = np.array([[3, 4, 5, 6], [7, 8, 9, 0]])
    keep = np.array([[True, True, True, True], [True, True, False, False]])
    packed, _ = forward_batch(m, ids, keep=keep)
    padded, _ = forward_batch(m, ids)
    assert packed.shape == (6, TINY.vocab_size)
    assert np.allclose(packed, padded[keep], rtol=1e-12, atol=1e-14)
    with pytest.raises(DomainError, match="prefix"):
        forward_batch(m, ids, keep=np.array([[True, False, True, True], [True, True, False, False]]))
    kv = [np.zeros((2, TINY.max_seq_len, 2 * TINY.d_model)) for _ in range(TINY.n_layers)]
    with pytest.raises(DomainError, match="kv"):
        forward_batch(m, ids, kv=kv, keep=keep)


def _snapshot(*arrays):
    return [a.copy() for a in arrays]


def _assert_bits_unchanged(before, after):
    for b, a in zip(before, after):
        assert b.dtype == a.dtype and b.tobytes() == a.tobytes()


def _zeroed_cache(cfg):
    return [np.zeros((1, cfg.max_seq_len, 2 * cfg.d_model)) for _ in range(cfg.n_layers)]


def test_in_place_attention_writes_only_its_own_temporaries():
    m = init_model(PACK)
    params = list(m.params.values())
    ids = _padded(_mixed_rows([9, 5, 7], seed=3), 9)
    keep = ids[:, 1:] != 0
    inputs = ids[:, :-1]
    before = _snapshot(*params, ids, keep)

    forward_batch(m, inputs)
    forward_batch(m, inputs, collect=True, keep=keep)
    backward(m, ids)
    _assert_bits_unchanged(before, params + [ids, keep])

    kv = [_zeroed_cache(PACK) for _ in inputs]
    for pos in range(inputs.shape[1]):  # each position one cached call of all rows
        col = inputs[:, pos : pos + 1]
        cached = [[buf[:, :pos].copy() for buf in caches] for caches in kv]
        before = _snapshot(*params, col)
        forward_batch(m, col, kv=kv, pos=np.full(len(col), pos))
        _assert_bits_unchanged(before, params + [col])
        for caches, rows in zip(kv, cached):
            _assert_bits_unchanged(rows, [buf[:, :pos] for buf in caches])


LONG = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=2 * KEY_CLASS + 3, seed=5)


def _assert_per_row_equals_one_row_calls(cfg, lengths, stale):
    """Rows at positions lengths - 1, each on its own cache, in one call give the logits
    and cache rows of each sequence fed by one-row calls into a zeroed cache. With
    stale, each pooled cache first holds another sequence's rows, which past the
    row's position stay in place and add nothing."""
    m = init_model(cfg)
    rng = np.random.default_rng(6)
    seqs = [[int(t) for t in rng.integers(1, cfg.vocab_size, size=n)] for n in lengths]

    def one_row(ids, kv):
        """One-row cached calls feeding ids at positions [0, len(ids)); the last call's logits."""
        for at, token in enumerate(ids):
            logits, _ = forward_batch(m, [[token]], kv=[kv], pos=np.array([at]))
        return logits[0]

    def cache_of(prefix):
        kv = _zeroed_cache(cfg)
        if stale:
            one_row(rng.integers(1, cfg.vocab_size, size=cfg.max_seq_len), kv)
        if prefix:
            one_row(prefix, kv)
        return kv

    lone_kv = [_zeroed_cache(cfg) for _ in seqs]
    lone = [one_row(seq, kv) for seq, kv in zip(seqs, lone_kv)]
    kv = [cache_of(seq[:-1]) for seq in seqs]
    past = [[buf[:, len(seq):].copy() for buf in caches] for seq, caches in zip(seqs, kv)]
    logits, _ = forward_batch(m, [seq[-1:] for seq in seqs], kv=kv, pos=np.array([len(seq) - 1 for seq in seqs]))
    for seq, got, want, caches, lone_caches, rest in zip(seqs, logits, lone, kv, lone_kv, past):
        assert np.array_equal(got, want)
        n = len(seq)
        for buf, lone_buf, buf_rest in zip(caches, lone_caches, rest):
            assert np.array_equal(buf[:, :n], lone_buf[:, :n])
            assert np.array_equal(buf[:, n:], buf_rest)
            assert np.any(buf_rest[..., cfg.d_model:] != 0) == (stale and n < cfg.max_seq_len)


def test_forward_batch_per_row_positions_equal_one_row_calls_bit_for_bit():
    """Rows at positions 2, 0, 2 and 5 (two share a position), and rows on both sides
    of a key width boundary and in a last class capped at max_seq_len, on caches
    whose rows past each position hold another sequence's values: one call gives
    the logits and cache rows of one one-row call each."""
    _assert_per_row_equals_one_row_calls(TINY, (3, 1, 3, 6), stale=False)
    _assert_per_row_equals_one_row_calls(
        LONG, (KEY_CLASS, KEY_CLASS + 1, 1, LONG.max_seq_len, KEY_CLASS, 2 * KEY_CLASS + 1), stale=True)
    m, kv = tiny_model(), [_zeroed_cache(TINY) for _ in range(3)]
    pos = np.array([1, 2])
    for bad in (dict(ids=[[3, 4], [5, 6]], kv=kv[:2], pos=pos), dict(ids=[[3], [5]], kv=kv[:3], pos=pos),
                dict(ids=[[3], [5]], kv=kv[:2], pos=np.array([1, TINY.max_seq_len])),
                dict(ids=[[3], [5]], kv=kv[:2], pos=pos, collect=True), dict(ids=[[3], [5]], pos=pos),
                dict(ids=[[3], [5]], kv=kv[:2], pos=pos, keep=np.ones((2, 1), dtype=bool)),
                dict(ids=[[3]], pos=2), dict(ids=[[3, 4]], pos=2), dict(ids=[[3]], kv=kv[:1])):
        with pytest.raises(DomainError):
            forward_batch(m, **bad)


def test_softmax_overwrites_its_argument():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5, 5))
    hidden = np.broadcast_to(~np.tri(5, dtype=bool), x.shape)
    x[hidden] = -np.inf
    out = softmax(x)
    assert out is x
    assert np.allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.all(out[hidden] == 0.0)
    assert np.all(out[~hidden] > 0.0)


# --- training --------------------------------------------------------------

def _toy_corpus(n=8, length=6, vocab=15, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        ids = [3 + i] + [int(x) for x in rng.integers(3, vocab, size=length - 2)] + [2]
        out.append(EncodedTrajectory(ids=ids, prefix_len=1, traj_id=f"t{i}"))
    return out


def test_train_zero_epochs_leaves_model_unchanged():
    cfg = ModelConfig(vocab_size=15, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8, seed=0)
    m = init_model(cfg)
    before = {k: v.copy() for k, v in m.params.items()}
    log = train(m, _toy_corpus(), TrainConfig(n_epochs=0, batch_size=64, learning_rate=3e-4, seed=0))
    assert log == []
    assert all(np.array_equal(before[k], m.params[k]) for k in before)


def test_train_single_batch_loss_strictly_decreases_10_steps():
    cfg = ModelConfig(vocab_size=15, d_model=16, n_heads=2, n_layers=1, d_ff=32, max_seq_len=8, seed=0)
    m = init_model(cfg)
    corpus = _toy_corpus()
    # one batch per epoch, so the per-epoch log is the per-step loss sequence
    log = train(m, corpus, TrainConfig(n_epochs=10, batch_size=len(corpus), learning_rate=1e-3, seed=1))
    assert len(log) == 10
    assert all(b < a for a, b in zip(log, log[1:]))


def test_train_deterministic_given_seed():
    cfg = ModelConfig(vocab_size=15, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=8, seed=0)
    m1, m2 = init_model(cfg), init_model(cfg)
    corpus = _toy_corpus()
    tc = TrainConfig(n_epochs=3, batch_size=3, learning_rate=3e-4, seed=9)
    log1 = train(m1, corpus, tc)
    log2 = train(m2, corpus, tc)
    assert log1 == log2
    assert all(np.array_equal(m1.params[k], m2.params[k]) for k in m1.params)


def test_train_rejects_overlong_sequences():
    cfg = ModelConfig(vocab_size=15, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=4, seed=0)
    with pytest.raises(DomainError, match="trajectory 't0' has 8 tokens"):
        train(init_model(cfg), _toy_corpus(length=8), TrainConfig(n_epochs=1, batch_size=64, learning_rate=3e-4, seed=0))
    # the last id is only a target, so max_seq_len + 1 ids train
    assert len(train(init_model(cfg), _toy_corpus(length=5), TrainConfig(n_epochs=1, batch_size=64, learning_rate=3e-4, seed=0))) == 1


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_epochs=1, batch_size=64, learning_rate=0.0, seed=0)
    with pytest.raises(ConfigError):
        TrainConfig(n_epochs=1, batch_size=0, learning_rate=3e-4, seed=0)


class _ReferenceAdam:
    """The per-parameter Adam step that AdamOptimizer replaced, verbatim."""

    def __init__(self, model, tc):
        self.learning_rate = tc.learning_rate
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in model.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(self, model, grads):
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if total > CLIP_NORM:
            scale = CLIP_NORM / total
            grads = {k: g * scale for k, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in model.params.items():
            g = grads[name]
            self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * (g * g)
            mhat = self.m[name] / bc1
            vhat = self.v[name] / bc2
            p -= self.learning_rate * mhat / (np.sqrt(vhat) + EPS)


def _flat_bytes(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


def test_adam_step_matches_the_per_parameter_reference_bit_for_bit():
    m = init_model(PACK)
    ref_model = m.copy()
    tc = TrainConfig(n_epochs=1, batch_size=64, learning_rate=3e-3, seed=0)
    opt, ref = AdamOptimizer(m, tc), _ReferenceAdam(ref_model, tc)
    arrays = list(m.params.values())
    batches = [_padded(_mixed_rows([9, 6, 4], seed=s), 9) for s in range(3)]
    # gradients scaled to a global norm far above CLIP_NORM (clipped), then below it
    for gain, clipped in ((50.0, True), (0.05, False)):
        for ids in batches + batches[:1]:
            _, grads = backward(m, ids)
            grads = {k: gain * g for k, g in grads.items()}
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            assert (norm > CLIP_NORM) == clipped
            given = _snapshot(*grads.values())
            opt.step(m, grads)
            ref.step(ref_model, grads)
            _assert_bits_unchanged(given, list(grads.values()))
            assert all(a is b for a, b in zip(m.params.values(), arrays))
            for name in m.params:
                assert m.params[name].tobytes() == ref_model.params[name].tobytes(), name
            assert opt.t == ref.t
            assert opt.m.tobytes() == _flat_bytes(ref.m.values())
            assert opt.v.tobytes() == _flat_bytes(ref.v.values())
