import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajlm import online
from trajlm.errors import DomainError, SessionFullError
from trajlm.model import KEY_CLASS, ModelConfig, forward_batch, init_model
from trajlm.online import open_session, partial_verdict
from trajlm.scoring import ThresholdTable, surprisal, token_log_probs
from trajlm.vocab import EncodedTrajectory

CFG = ModelConfig(vocab_size=24, d_model=32, n_heads=4, n_layers=3, d_ff=64, max_seq_len=32, seed=8)


@pytest.fixture(scope="module")
def model():
    return init_model(CFG)


def _logp(s):
    """The log-probabilities a session's next push scores against, its queued row computed first."""
    s._pool.ready(s._slot)
    return s._pool.logp[s._slot]


def _cached_kv(s, layer):
    """Views of a session's cached key/value rows for one layer, its queued row computed first."""
    s._pool.ready(s._slot)
    rows = s._pool.caches[s._slot][layer][0, :len(s)]
    return rows[:, :CFG.d_model], rows[:, CFG.d_model:]


def test_open_with_sot(model):
    s = open_session(model, [1])
    assert len(s) == 1
    assert s.scored_count == 0
    k, v = _cached_kv(s, 0)
    assert k.shape == (1, CFG.d_model) and v.shape == (1, CFG.d_model)


def test_open_with_agent_weekday_prefix(model):
    s = open_session(model, [5, 6])
    assert len(s) == 2
    assert _cached_kv(s, 1)[0].shape == (2, CFG.d_model)


def test_open_twice_identical_state(model):
    s1, s2 = open_session(model, [5, 6]), open_session(model, [5, 6])
    for layer in range(CFG.n_layers):
        assert np.array_equal(_cached_kv(s1, layer)[0], _cached_kv(s2, layer)[0])
        assert np.array_equal(_cached_kv(s1, layer)[1], _cached_kv(s2, layer)[1])
    assert np.array_equal(_logp(s1), _logp(s2))


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
        ppl = surprisal(model, enc).perplexity
        assert abs(s.running_perplexity - ppl) < 1e-9 * ppl


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
        k, v = _cached_kv(s, layer)
        assert np.allclose(k, _flat(cache, layer, "kh"), rtol=1e-9, atol=1e-12)
        assert np.allclose(v, _flat(cache, layer, "vh"), rtol=1e-9, atol=1e-12)


def test_prefill_then_push_matches_batch(model):
    ids = [int(x) for x in np.random.default_rng(11).integers(1, CFG.vocab_size, size=20)]
    batch_lp = token_log_probs(model, [ids])[0]
    k = 5
    s = open_session(model, ids[:k])  # five queued rows, four of them flushed
    surprisals = np.array([s.push(tok)[0] for tok in ids[k:]])
    assert np.max(np.abs(surprisals + batch_lp[k - 1:]) / np.abs(batch_lp[k - 1:])) < 1e-9
    _, cache = forward_batch(model, np.asarray(ids)[None, :], collect=True)
    for layer in range(CFG.n_layers):
        k_rows, v_rows = _cached_kv(s, layer)
        assert np.allclose(k_rows, _flat(cache, layer, "kh"), rtol=1e-9, atol=1e-12)
        assert np.allclose(v_rows, _flat(cache, layer, "vh"), rtol=1e-9, atol=1e-12)


def test_an_open_on_k_ids_equals_an_open_on_one_pushed_the_rest_bit_for_bit(model):
    """An open feeds its ids as pushes do: each leaves the same cache rows, len and
    log-probabilities as an open on ids[:1] pushed ids[1:k], bit for bit."""
    ids = [int(x) for x in np.random.default_rng(13).integers(1, CFG.vocab_size, size=KEY_CLASS + 3)]
    for k in range(2, len(ids) + 1):
        opened, pushed = open_session(model, ids[:k]), open_session(model, ids[:1])
        for tok in ids[1:k]:
            pushed.push(tok)
        assert len(opened) == len(pushed) == k
        assert np.array_equal(_logp(opened), _logp(pushed))
        for layer in range(CFG.n_layers):
            assert np.array_equal(opened._pool.caches[opened._slot][layer][0, :k],
                                  pushed._pool.caches[pushed._slot][layer][0, :k])


def test_cached_call_past_max_seq_len_leaves_session_unchanged():
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_seq_len=6, seed=0)
    model = init_model(cfg)
    s = open_session(model, [1, 3, 4])
    pool, slot = s._pool, s._slot
    pool.ready(slot)
    buffers = [buf.copy() for buf in pool.caches[slot]]
    logp = pool.logp[slot].copy()
    for token, at in ((5, cfg.max_seq_len), (99, len(s))):  # past max_seq_len; an unknown id
        with pytest.raises(DomainError):
            forward_batch(model, [[token]], kv=[pool.caches[slot]], pos=np.array([at]))
        assert len(s) == 3
        assert np.array_equal(pool.logp[slot], logp)
        for buf, buf0 in zip(pool.caches[slot], buffers):
            assert np.array_equal(buf, buf0)


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


@st.composite
def _tiny_configs(draw):
    n_heads = draw(st.sampled_from([1, 2, 4]))
    d_model = n_heads * draw(st.integers(max(1, 4 // n_heads), 16 // n_heads))
    return ModelConfig(vocab_size=draw(st.integers(5, 12)), d_model=d_model, n_heads=n_heads,
                       n_layers=draw(st.integers(1, 2)), d_ff=draw(st.integers(4, 16)),
                       max_seq_len=draw(st.integers(3, 3 * KEY_CLASS)), seed=draw(st.integers(0, 2**16)))


_OPS = st.tuples(st.sampled_from(["open", "open", "push", "push", "push", "push", "push", "drop", "ppl"]),
                 st.integers(0, 7), st.integers(0, 2**16))


def _state(s):
    return len(s), s.scored_count, s.surprisal_sum


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=_tiny_configs(), ops=st.lists(_OPS, min_size=10, max_size=60))
def test_interleaved_sessions_each_equal_a_lone_session_bit_for_bit(cfg, ops):
    """Up to 8 sessions of one model, opened on 1 to 2 * KEY_CLASS ids, pushed, dropped
    and read in any order, flush their queued rows together. Each session's pushes,
    len, scored count and surprisal sum equal those of a fresh session of a copy of
    the model (a pool of its own) pushed the same ids alone, bit for bit, and its
    surprisals match token_log_probs within C04's 1e-9."""
    model = init_model(cfg)
    live = []  # [session, conditioning ids, pushed ids, push results]
    ended = []  # (conditioning ids, pushed ids, push results, _state when dropped or at the end)
    for op, pick, arg in ops:
        if op == "open" and len(live) < 8:
            # 1 or 2 ids, or a third of the time up to 2 * KEY_CLASS, so that one flush
            # holds rows in different key width classes
            n_cond = min(1 + arg % 2 if arg % 3 else 1 + arg // 3 % (2 * KEY_CLASS), cfg.max_seq_len)
            cond = [(arg // 7**j) % cfg.vocab_size for j in range(n_cond)]
            live.append([open_session(model, cond), cond, [], []])
        if not live:
            continue
        session, cond, pushed, results = live[pick % len(live)]
        if op == "drop":
            ended.append((cond, pushed, results, _state(session)))
            del live[pick % len(live)], session  # its last references: the session is dropped here
        elif op == "ppl" and results:
            assert session.running_perplexity == results[-1][1]
        elif op == "ppl":
            with pytest.raises(DomainError):
                session.running_perplexity
        elif op == "push" and not session.full:
            pushed.append(arg % cfg.vocab_size)
            results.append(session.push(pushed[-1]))
    ended += [(cond, pushed, results, _state(session)) for session, cond, pushed, results in live]
    lone_model = model.copy()
    for cond, pushed, results, state in ended:
        lone = open_session(lone_model, cond)
        assert [lone.push(t) for t in pushed] == results
        assert _state(lone) == state
        if pushed:
            lp = token_log_probs(model, [cond + pushed])[0][len(cond) - 1:]
            got = np.array([s for s, _ in results])
            assert np.all(np.abs(got + lp) <= 1e-9 * np.abs(lp))
            assert math.isclose(results[-1][1], math.exp(-lp.mean()), rel_tol=1e-9)


def _count_forward_rows(monkeypatch) -> list[int]:
    """The number of id rows of each forward_batch call a session makes from here on."""
    rows, real = [], online.forward_batch

    def counting(model, ids, **kwargs):
        rows.append(len(ids))
        return real(model, ids, **kwargs)

    monkeypatch.setattr(online, "forward_batch", counting)
    return rows


def test_pool_capacity_stays_at_the_most_sessions_open_at_once():
    model = init_model(CFG)
    rng = np.random.default_rng(4)
    live = [open_session(model, [1])]
    pool = live[0]._pool
    for _ in range(1000):
        if len(live) == 8 or rng.random() < 0.4:
            live.pop(int(rng.integers(len(live))))
        live.append(open_session(model, [int(rng.integers(1, CFG.vocab_size))]))
        live[-1].push(int(rng.integers(1, CFG.vocab_size)))
    assert 1 <= len(pool.caches) <= 8  # the pool's capacity: slots with buffers


def test_a_flush_of_n_rows_makes_one_log_softmax_call(monkeypatch):
    """Sessions at positions in different key width classes flush together: one
    forward_batch call and one log_softmax call per flush, and each push only reads
    its token's entry."""
    model = init_model(CFG)
    sessions = [open_session(model, [1])]
    for _ in range(KEY_CLASS + 1):  # one session past the first width class
        sessions[0].push(3)
    sessions += [open_session(model, [2]) for _ in range(4)]
    rows = _count_forward_rows(monkeypatch)
    calls, real = [], online.log_softmax

    def counting(logits):
        calls.append(logits.shape)
        return real(logits)

    monkeypatch.setattr(online, "log_softmax", counting)
    for _ in range(2):
        for s in sessions:
            s.push(4)
    assert rows == [5, 5]
    assert calls == [(5, CFG.vocab_size), (5, CFG.vocab_size)]


def test_a_models_pool_outlives_its_sessions_and_dies_with_the_model():
    """A pool keeps its slots, buffers and all, after its last session is dropped, and
    is dropped itself once its model is collected."""
    model = init_model(CFG)
    first = open_session(model, [1])
    pool, buffers = weakref.ref(first._pool), first._pool.caches[0]
    del first
    s = open_session(model, [2])
    assert s._pool is pool() and len(s._pool.caches) == 1 and s._pool.caches[s._slot] is buffers
    s.push(3)
    del s, model
    assert pool() is None


def test_a_dropped_sessions_queued_row_is_never_computed(monkeypatch):
    model = init_model(CFG)
    a, b, c = (open_session(model, [1]) for _ in range(3))  # three rows queued at position 0
    rows = _count_forward_rows(monkeypatch)
    del b
    a.push(3)  # computes the rows of a and c
    c.push(4)  # c's log-probabilities are ready: queues its row without a flush
    del c
    a.push(5)  # computes a's row alone
    assert rows == [2, 1]


def test_a_rejected_push_flushes_nothing_and_leaves_every_queue(monkeypatch):
    cfg = ModelConfig(vocab_size=10, d_model=8, n_heads=2, n_layers=1, d_ff=16, max_seq_len=4, seed=0)
    model = init_model(cfg)
    full = open_session(model, [1])
    for tok in (3, 4, 5, 6):
        full.push(tok)
    a, b = open_session(model, [1]), open_session(model, [2])
    a.push(3)
    b.push(5)
    queue, states = dict(a._pool.queue), [_state(s) for s in (full, a, b)]
    assert len(queue) == 2
    rows = _count_forward_rows(monkeypatch)
    for session, token, error in ((a, cfg.vocab_size, DomainError), (b, -1, DomainError), (full, 3, SessionFullError)):
        with pytest.raises(error):
            session.push(token)
    assert rows == []
    assert a._pool.queue == queue
    assert [_state(s) for s in (full, a, b)] == states


def test_sessions_of_two_models_or_of_a_copy_never_share_a_pool():
    model = init_model(CFG)
    s = open_session(model, [1])
    assert open_session(model, [2])._pool is s._pool
    for other in (init_model(CFG), model.copy()):
        assert open_session(other, [1])._pool is not s._pool


def test_a_session_collected_during_a_flush_leaves_the_other_rows_in_place(monkeypatch):
    """A session held only by a reference cycle is dropped whenever the garbage collector
    runs, which can be inside a flush; every other row still reaches its own slot."""
    model = init_model(CFG)
    a, b, c = (open_session(model, [tok]) for tok in (1, 2, 3))
    cycle = [b]
    cycle.append(cycle)
    del b, cycle
    real = online.forward_batch

    def collecting(*args, **kwargs):
        out = real(*args, **kwargs)
        gc.collect()
        return out

    monkeypatch.setattr(online, "forward_batch", collecting)
    a.push(4)  # flushes the rows of a, b and c; b is collected inside the call
    lone = open_session(model.copy(), [3])
    assert c.push(5) == lone.push(5)
