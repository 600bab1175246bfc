import numpy as np
import pytest

from trajlm.errors import DomainError, SessionFullError
from trajlm.model import ModelConfig, forward_batch, init_model
from trajlm.online import open_session, partial_verdict
from trajlm.scoring import ThresholdTable, perplexity, token_log_probs
from trajlm.vocab import EncodedTrajectory

CFG = ModelConfig(vocab_size=24, d_model=32, n_heads=4, n_layers=3, d_ff=64, max_seq_len=32, seed=8)


@pytest.fixture(scope="module")
def model():
    return init_model(CFG)


def test_open_with_sot(model):
    s = open_session(model, [1])
    assert len(s) == 1
    assert s.scored_count == 0
    k, v = s.cached_kv(0)
    assert k.shape == (1, CFG.d_model) and v.shape == (1, CFG.d_model)


def test_open_with_agent_weekday_prefix(model):
    s = open_session(model, [5, 6])
    assert len(s) == 2
    assert s.cached_kv(1)[0].shape == (2, CFG.d_model)


def test_open_twice_identical_state(model):
    s1, s2 = open_session(model, [5, 6]), open_session(model, [5, 6])
    for layer in range(CFG.n_layers):
        assert np.array_equal(s1.cached_kv(layer)[0], s2.cached_kv(layer)[0])
        assert np.array_equal(s1.cached_kv(layer)[1], s2.cached_kv(layer)[1])
    assert np.array_equal(s1._last_logits, s2._last_logits)


def test_open_session_validation(model):
    with pytest.raises(DomainError):
        open_session(model, [])
    with pytest.raises(DomainError):
        open_session(model, [1] * (CFG.max_seq_len + 1))
    with pytest.raises(DomainError):
        open_session(model, [999])


def test_push_matches_batch_scorer(model):
    """Random lengths, then max_seq_len + 1 ids, the most that batch scoring takes."""
    rng = np.random.default_rng(3)
    for n in [*(int(n) for n in rng.integers(4, CFG.max_seq_len, size=20)), CFG.max_seq_len + 1]:
        ids = [int(x) for x in rng.integers(1, CFG.vocab_size, size=n)]
        enc = EncodedTrajectory(ids=ids, prefix_len=1)
        batch_lp = token_log_probs(model, [ids])[0]
        s = open_session(model, ids[:1])
        surprisals = [s.push(tok)[0] for tok in ids[1:]]
        rel = np.abs(np.array(surprisals) + batch_lp) / np.abs(batch_lp)
        assert rel.max() < 1e-9
        assert abs(s.running_perplexity - perplexity(model, enc)) < 1e-9 * perplexity(model, enc)


def _flat(cache, layer, name):
    """(1, h, T, dh) -> (T, d), to compare with the session's flat rows."""
    x = cache["layers"][layer][name]
    return x[0].transpose(1, 0, 2).reshape(x.shape[2], CFG.d_model)


def test_cache_matches_full_forward_kv(model):
    ids = [3, 4, 5, 6, 7, 8]
    s = open_session(model, ids[:1])
    for tok in ids[1:]:
        s.push(tok)
    _, cache = forward_batch(model, np.asarray(ids)[None, :], collect=True)
    for layer in range(CFG.n_layers):
        k, v = s.cached_kv(layer)
        assert np.allclose(k, _flat(cache, layer, "kh"), rtol=1e-9, atol=1e-12)
        assert np.allclose(v, _flat(cache, layer, "vh"), rtol=1e-9, atol=1e-12)


def test_prefill_then_push_matches_batch(model):
    ids = [int(x) for x in np.random.default_rng(11).integers(1, CFG.vocab_size, size=20)]
    batch_lp = token_log_probs(model, [ids])[0]
    k = 5
    s = open_session(model, ids[:k])  # one cached call with t_new = 5
    surprisals = np.array([s.push(tok)[0] for tok in ids[k:]])
    assert np.max(np.abs(surprisals + batch_lp[k - 1:]) / np.abs(batch_lp[k - 1:])) < 1e-9
    _, cache = forward_batch(model, np.asarray(ids)[None, :], collect=True)
    for layer in range(CFG.n_layers):
        k_rows, v_rows = s.cached_kv(layer)
        assert np.allclose(k_rows, _flat(cache, layer, "kh"), rtol=1e-9, atol=1e-12)
        assert np.allclose(v_rows, _flat(cache, layer, "vh"), rtol=1e-9, atol=1e-12)


def test_offset_chunks_match_full_forward(model):
    """Chunks with t_new > 1 at pos > 0 see the cached prefix under the offset mask."""
    ids = np.random.default_rng(12).integers(1, CFG.vocab_size, size=(2, 20))
    full, cache = forward_batch(model, ids, collect=True)
    shape = (2, CFG.max_seq_len, CFG.d_model)
    kv = [(np.zeros(shape), np.zeros(shape)) for _ in range(CFG.n_layers)]
    chunks = [(0, 3), (3, 8), (8, 9), (9, 20)]
    logits = np.concatenate([forward_batch(model, ids[:, a:b], kv=kv, pos=a)[0] for a, b in chunks], axis=1)
    assert np.allclose(logits, full, rtol=1e-9, atol=1e-12)
    for layer, (k_buf, v_buf) in enumerate(kv):
        for name, buf in (("kh", k_buf), ("vh", v_buf)):
            want = cache["layers"][layer][name].transpose(0, 2, 1, 3).reshape(2, 20, CFG.d_model)
            assert np.allclose(buf[:, :20], want, rtol=1e-9, atol=1e-12)
            assert np.all(buf[:, 20:] == 0.0)


def test_cached_call_past_max_seq_len_leaves_session_unchanged():
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=6, seed=0)
    s = open_session(init_model(cfg), [1, 3, 4])
    buffers = [(k.copy(), v.copy()) for k, v in s._kv]
    logits = s._last_logits.copy()
    for bad in ([5, 6, 7, 8], [5, 99]):  # past max_seq_len; valid length with an unknown id
        with pytest.raises(DomainError):
            s._advance(bad)
        assert len(s) == 3
        assert np.array_equal(s._last_logits, logits)
        for (k, v), (k0, v0) in zip(s._kv, buffers):
            assert np.array_equal(k, k0) and np.array_equal(v, v0)


def test_push_into_full_session_errors_without_mutation():
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=4, seed=0)
    m = init_model(cfg)
    s = open_session(m, [1])
    for tok in (3, 4, 5, 6):  # the id at position max_seq_len is still scored
        s.push(tok)
    assert s.full
    before = (len(s), s.scored_count, s.surprisal_sum)
    with pytest.raises(SessionFullError):
        s.push(7)
    assert (len(s), s.scored_count, s.surprisal_sum) == before


def test_push_unknown_token(model):
    s = open_session(model, [1])
    with pytest.raises(DomainError):
        s.push(CFG.vocab_size)


def test_sessions_are_deterministic(model):
    ids = [2, 5, 7, 9]
    outs1 = []
    outs2 = []
    for outs in (outs1, outs2):
        s = open_session(model, ids[:1])
        for tok in ids[1:]:
            outs.append(s.push(tok))
    assert outs1 == outs2


def test_partial_verdict(model):
    table = ThresholdTable({None: (1e9, 0.0, 2)})
    s = open_session(model, [1])
    with pytest.raises(DomainError):
        partial_verdict(s, table)
    s.push(3)
    assert partial_verdict(s, table).verdict == "normal"
    tight = ThresholdTable({None: (1.0, 0.0, 2)})
    assert partial_verdict(s, tight).verdict == "anomalous"


def test_partial_verdict_monotone_at_every_prefix(model):
    ids = [1, 3, 4, 5, 6, 7]
    s = open_session(model, ids[:1])
    for tok in ids[1:]:
        s.push(tok)
        low = partial_verdict(s, ThresholdTable({None: (1.0, 0.0, 2)})).verdict
        high = partial_verdict(s, ThresholdTable({None: (1e9, 0.0, 2)})).verdict
        assert not (low == "normal" and high == "anomalous")


def test_running_perplexity_identity(model):
    ids = [1, 3, 4, 5]
    s = open_session(model, ids[:1])
    surprisals = [s.push(tok)[0] for tok in ids[1:]]
    assert np.isclose(s.running_perplexity, np.exp(np.mean(surprisals)), rtol=1e-12)


def test_fork_and_its_original_diverge_each_as_a_fresh_session(model):
    """A fork holds copies of its original's state. Pushed different continuations in
    turn, each scores its own bit for bit as a fresh session pushed its whole prefix."""
    prefix, ours, theirs = [1, 3, 4, 5], [6, 7, 8], [9, 10, 11]

    def fresh(ids):
        s = open_session(model, ids[:1])
        return s, [s.push(tok) for tok in ids[1:]]

    original = open_session(model, prefix[:1])
    for tok in prefix[1:]:
        original.push(tok)
    fork = original.fork()
    got = {"ours": [], "theirs": []}
    for a, b in zip(ours, theirs):
        got["ours"].append(original.push(a))
        got["theirs"].append(fork.push(b))
    for session, name, rest in ((original, "ours", ours), (fork, "theirs", theirs)):
        ref, pushes = fresh(prefix + rest)
        assert got[name] == pushes[len(prefix) - 1:]
        assert (len(session), session.scored_count, session.surprisal_sum) == \
            (len(ref), ref.scored_count, ref.surprisal_sum)
        assert np.array_equal(session._last_logits, ref._last_logits)
        for layer in range(CFG.n_layers):
            assert np.array_equal(session.cached_kv(layer)[0], ref.cached_kv(layer)[0])
            assert np.array_equal(session.cached_kv(layer)[1], ref.cached_kv(layer)[1])
