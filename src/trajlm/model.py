"""Causal-attention autoregressive network over token ids, in plain numpy.

The network is a standard decoder stack: token + learned positional
embeddings, N pre-norm blocks (masked multi-head attention, then a two-layer
ReLU feed-forward, each wrapped with a residual connection), a final layer
norm, and a linear projection to vocabulary logits. Forward, loss, and the
full analytic backward pass are implemented here directly so gradients can be
verified against finite differences. Parameters and activations are float64
(DTYPE) and no layer is stochastic, so training and scoring are deterministic.

forward_batch is the only implementation of the block. Training, batch
scoring and online sessions all run it. Without a cache it runs whole
sequences from position 0. Its one cached form feeds one new row per session
against that session's per-layer key/value cache, so a session's results
differ from a batch forward only by BLAS summation order. Rows of many
sessions at different positions run in one cached call with a per-row
position vector: the position-wise layers run on the stacked (n, 1, d_model)
rows, where numpy's stacked matmul makes the same BLAS call per row as for a
lone row, and attention runs once per width class of keys. A row at position
pos reads its cache's first _key_width(pos) keys and masks those past pos, so
its bits do not depend on the other rows of the call: a lone session is a
call of one row.

Training computes only the positions whose targets are scored. backward
passes forward_batch a `keep` mask (True where the target is not PAD; a
prefix of each row), and every position-wise layer (layer norms, the Q/K/V/O
projections, the feed-forward, the final norm and the output projection) runs
on the (n_scored, d_model) rows gathered at `keep`. Only attention sees the
padded (n_seq, t, d_model) layout, with zeros at the dropped positions. A
dropped position feeds only later positions, which are dropped too, so the
loss and gradients are those of the padded batch. Scoring and sessions pass
no mask and run the padded layout unchanged.

Attention works in place on the score arrays it creates: forward_batch
scales and masks its scores in place and softmax overwrites them with the
attention weights; backward turns d_attn into d_scores in place, and the
logits that log_softmax overwrote into d_logits. These are the operations of
the out-of-place forms in the same order, so the results are bit-identical.
backward holds only what it still reads: no ReLU pre-activation (its mask is
relu > 0), d_logits until d_hf and the w_out gradient exist, and each layer's
activations until that layer is done. Each gradient is assigned when
computed; only the embeddings' start from zeros, for np.add.at.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError

LN_EPS = 1e-5
INIT_STD = 0.02
DTYPE = np.dtype(np.float64)

# Key width class of a cached call (_key_width). A wider class makes
# fewer attention calls per flush of many sessions, each over more masked keys.
# A round of 64 interleaved porto-shaped sessions made 7652 attention calls at
# width 1, 2836 at 4, 1668 at 8 and 1016 at 16; its time was within noise from
# 4 to 12, and about 15 % longer at 1.
KEY_CLASS = 8


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    n_layers: int
    d_ff: int
    max_seq_len: int
    seed: int

    def __post_init__(self) -> None:
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size must cover the specials, got {self.vocab_size}")
        for name in ("d_model", "n_heads", "n_layers", "d_ff"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.max_seq_len < 2:
            raise ConfigError(f"max_seq_len must be >= 2, got {self.max_seq_len}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kwargs = {}
        names = {f.name for f in fields(cls)}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep or key not in names:
                raise ConfigError(f"bad model config line {line!r}")
            kwargs[key] = int(value)
        missing = sorted(names - kwargs.keys())
        if missing:
            raise ConfigError(f"model config is missing {missing[0]}")
        return cls(**kwargs)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order and shapes for init, checkpoints, and optimizers."""
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (cfg.vocab_size, cfg.d_model),
        "pos_emb": (cfg.max_seq_len, cfg.d_model),
    }
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        shapes[f"{p}.ln1.g"] = (cfg.d_model,)
        shapes[f"{p}.ln1.b"] = (cfg.d_model,)
        shapes[f"{p}.attn.wq"] = (cfg.d_model, cfg.d_model)
        shapes[f"{p}.attn.wk"] = (cfg.d_model, cfg.d_model)
        shapes[f"{p}.attn.wv"] = (cfg.d_model, cfg.d_model)
        shapes[f"{p}.attn.wo"] = (cfg.d_model, cfg.d_model)
        shapes[f"{p}.ln2.g"] = (cfg.d_model,)
        shapes[f"{p}.ln2.b"] = (cfg.d_model,)
        shapes[f"{p}.ffn.w1"] = (cfg.d_model, cfg.d_ff)
        shapes[f"{p}.ffn.b1"] = (cfg.d_ff,)
        shapes[f"{p}.ffn.w2"] = (cfg.d_ff, cfg.d_model)
        shapes[f"{p}.ffn.b2"] = (cfg.d_model,)
    shapes["final_ln.g"] = (cfg.d_model,)
    shapes["final_ln.b"] = (cfg.d_model,)
    shapes["w_out"] = (cfg.d_model, cfg.vocab_size)
    return shapes


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, np.ndarray]
    vocab_hash: str = ""

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()}, self.vocab_hash)


def init_model(cfg: ModelConfig, vocab_hash: str = "") -> Model:
    """Zero-mean normal(0.02) weights, zero biases/offsets, unit layer-norm scales."""
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("b", "b1", "b2"):
            params[name] = np.zeros(shape, dtype=DTYPE)
        elif leaf == "g":
            params[name] = np.ones(shape, dtype=DTYPE)
        else:
            params[name] = rng.normal(0.0, INIT_STD, size=shape).astype(DTYPE)
    return Model(cfg, params, vocab_hash)


def check_lengths(model: Model, corpus) -> None:
    """Raise DomainError naming the first trajectory longer than max_seq_len + 1 ids.

    The network reads at most max_seq_len positions, and a trajectory's last id
    is only ever a target, so training, scoring and completion all take up to
    max_seq_len + 1 ids. corpus holds objects with `ids` and `traj_id`.
    """
    max_len = model.config.max_seq_len + 1
    for t in corpus:
        if len(t.ids) > max_len:
            raise DomainError(
                f"trajectory {t.traj_id!r} has {len(t.ids)} tokens; "
                f"this model takes at most {max_len} (max_seq_len {model.config.max_seq_len})"
            )


# ---------------------------------------------------------------------------
# Building-block operations
# ---------------------------------------------------------------------------

def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-subtracted softmax computed in place: overwrites x and returns it.

    -inf entries come out as exact zeros.
    """
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def layernorm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Row-wise layer norm over the last axis; returns (y, cache-for-backward)."""
    # add.reduce / n is what x.mean computes, without mean's per-call overhead,
    # which dominates the one-row calls of a session push.
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layernorm_backward(dy: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, inv, g = cache
    dg = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    db = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    n = dy.shape[-1]
    dx = inv * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / n
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / n)
    )
    return dx, dg, db


# ---------------------------------------------------------------------------
# Full network forward / loss / backward
# ---------------------------------------------------------------------------

def _key_width(pos: int, max_seq_len: int) -> int:
    """Keys a cached call reads for a row at position pos: pos + 1
    rounded up to a multiple of KEY_CLASS, at most max_seq_len. It depends on the
    row's own position only, so a row reads the same keys alone or in any batch."""
    return min(-(-(pos + 1) // KEY_CLASS) * KEY_CLASS, max_seq_len)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    b, t, d = x.shape
    return x.reshape(b, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, scale: np.ndarray,
            hidden: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
    """Scaled dot-product attention of (n, t_q, d) queries over (n, t_k, d) keys and
    values, head by head, with the keys marked in hidden masked out; returns the
    merged (n, t_q, d) context and the (qh, kh, vh, attn) that backward reads."""
    qh, kh, vh = _split_heads(q, n_heads), _split_heads(k, n_heads), _split_heads(v, n_heads)
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores /= scale
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    attn = softmax(scores, axis=-1)
    return _merge_heads(attn @ vh), (qh, kh, vh, attn)


def _scatter(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Packed (N, d) rows back into a zeroed (n_seq, t, d) layout at the True entries of keep."""
    out = np.zeros(keep.shape + rows.shape[1:], dtype=rows.dtype)
    out[keep] = rows
    return out


def forward_batch(
    model: Model,
    ids: np.ndarray,
    collect: bool = False,
    kv: list | None = None,
    pos: np.ndarray | None = None,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Run the network over an (n_seq, t_new) id batch.

    Returns logits of shape (n_seq, t_new, vocab_size) and, when collect is
    set, the intermediate activations needed by backward().

    Without kv each row is a whole sequence at positions [0, t_new).

    kv and pos come together and make a cached call, with one id column:
    pos is an (n_seq,) int vector and kv holds one cache per row, kv[r] being
    per-layer (1, max_seq_len, 2 * d_model) buffers. A buffer row holds a
    position's key in its first d_model columns and its value in the last,
    and rows [0, pos[r]) hold the projections of the tokens fed before. Row r
    gets pos_emb row pos[r], writes its key and value at position pos[r] of
    kv[r] and attends over that cache's keys [0, w), where w =
    _key_width(pos[r]) is pos[r] + 1 rounded up to a multiple of KEY_CLASS,
    at most max_seq_len; the keys past pos[r] are masked out. Their value
    halves must be finite, so that a masked key adds an exact zero: a zeroed
    buffer, or rows an earlier sequence left there. Position-wise layers run
    on the stacked rows, and per layer each row is written once and each
    width class is gathered once and attended once, so each row's logits are
    bit-identical to those of a call of that row alone. A cached call collects
    no activations.

    keep is an optional (n_seq, t_new) bool mask that is a prefix of each row
    (no True after a False), for a call without kv. With it only the
    N = keep.sum() kept positions are computed: logits come back packed as
    (N, vocab_size) in row-major order of keep, and so do the collected
    activations, except attention's, which stay padded. A kept position
    attends only to kept positions, so its logits are those of the padded
    call up to BLAS summation order.
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DomainError(f"expected (n_seq, seq_len) ids, got shape {ids.shape}")
    n_seq, t_new = ids.shape
    if (kv is None) != (pos is None):
        raise DomainError("a cached call takes both kv and pos: a cache and a position per row")
    if kv is not None:
        pos = np.asarray(pos)
        if t_new != 1 or collect or keep is not None:
            raise DomainError("a cached call takes one id column, and collects and keeps nothing")
        if pos.shape != (n_seq,) or len(kv) != n_seq:
            raise DomainError(f"a cached call needs {n_seq} positions and {n_seq} caches")
        if pos.min() < 0:
            raise DomainError("positions must be >= 0")
        end = int(pos.max()) + 1
    else:
        end = t_new
    if end > cfg.max_seq_len:
        raise DomainError(f"sequence length {end} exceeds max_seq_len {cfg.max_seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise DomainError(f"token ids must lie in [0, {cfg.vocab_size})")
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != ids.shape:
            raise DomainError(f"keep must be a bool mask of shape {ids.shape}, got {keep.dtype} {keep.shape}")
        if np.any(keep[:, 1:] & ~keep[:, :-1]):
            raise DomainError("keep must mark a prefix of each row")

    cache: dict | None = {"layers": []} if collect else None

    if kv is not None:
        x = p["tok_emb"][ids] + p["pos_emb"][pos][:, None]
        at = pos.tolist()
        classes: dict[int, list[int]] = {}  # key width -> the rows that read it
        for r, row_pos in enumerate(at):
            classes.setdefault(_key_width(row_pos, cfg.max_seq_len), []).append(r)
        # Per class: its width, its rows and, per row, the keys past the row's position.
        groups = [(w, rows, (np.arange(w) > pos[rows, None])[:, None, None]) for w, rows in classes.items()]
    elif keep is None:
        x = p["tok_emb"][ids] + p["pos_emb"][:t_new]
    else:
        x = p["tok_emb"][ids[keep]] + p["pos_emb"][np.nonzero(keep)[1]]
    hidden = ~np.tri(t_new, dtype=bool) if t_new > 1 else None  # row i hides the keys past i
    scale = np.sqrt(np.asarray(cfg.d_head, dtype=DTYPE))
    d = cfg.d_model

    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        a, ln1_cache = layernorm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = a @ p[f"{pre}.attn.wq"]
        k = a @ p[f"{pre}.attn.wk"]
        v = a @ p[f"{pre}.attn.wv"]
        if kv is not None:
            kv_new = np.concatenate([k, v], axis=-1)
            ctx = np.empty_like(q)
            for w, rows, row_hidden in groups:
                caches = [kv[r][i] for r in rows]
                for r, buf in zip(rows, caches):
                    buf[0, at[r]] = kv_new[r, 0]
                kv_read = np.concatenate([buf[:, :w] for buf in caches])
                ctx[rows] = _attend(q[rows], kv_read[..., :d], kv_read[..., d:], cfg.n_heads, scale, row_hidden)[0]
        else:
            if keep is not None:
                q, k, v = _scatter(q, keep), _scatter(k, keep), _scatter(v, keep)
            ctx, (qh, kh, vh, attn) = _attend(q, k, v, cfg.n_heads, scale, hidden)
            if keep is not None:
                ctx = ctx[keep]
        x_mid = x + ctx @ p[f"{pre}.attn.wo"]
        f, ln2_cache = layernorm(x_mid, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        relu = np.maximum(0.0, f @ p[f"{pre}.ffn.w1"] + p[f"{pre}.ffn.b1"])
        ffn_out = relu @ p[f"{pre}.ffn.w2"] + p[f"{pre}.ffn.b2"]
        if collect:
            cache["layers"].append(dict(ln1=ln1_cache, a=a, qh=qh, kh=kh, vh=vh, attn=attn, ctx=ctx,
                                        ln2=ln2_cache, f=f, relu=relu))
        x = x_mid + ffn_out

    hf, final_cache = layernorm(x, p["final_ln.g"], p["final_ln.b"])
    logits = hf @ p["w_out"]
    if collect:
        cache["final_ln"] = final_cache
        cache["hf"] = hf
    return logits, cache


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Max-subtracted log-softmax over the last axis computed in place: overwrites x and returns it."""
    x -= x.max(axis=-1, keepdims=True)
    x -= np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x


def nll_loss(logp: np.ndarray, targets: np.ndarray, pad_mask: np.ndarray) -> float:
    """Mean negative log-likelihood of targets under log-probs, over unmasked positions.

    logp: (..., seq, vocab), log_softmax of the logits; targets and pad_mask:
    (..., seq) with True where the position is scored.
    """
    targets = np.asarray(targets)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if logp.shape[:-1] != targets.shape or targets.shape != pad_mask.shape:
        raise DomainError(
            f"shape mismatch: log-probs {logp.shape}, targets {targets.shape}, mask {pad_mask.shape}"
        )
    n_scored = int(pad_mask.sum())
    if n_scored == 0:
        raise DomainError("all positions are masked; loss is undefined")
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    return float(-(picked * pad_mask).sum() / n_scored)


def backward(model: Model, ids: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact analytic gradients for next-token prediction on an id batch.

    ids: (n_seq, seq_len), right-padded with PAD (id 0); position t predicts
    ids[:, t + 1] and every non-PAD target is scored. Only the scored
    positions are computed (forward_batch's keep), so a row with a PAD before
    a non-PAD id is rejected: packing it would change what it attends to.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] < 2:
        raise DomainError(f"need an (n_seq, seq_len>=2) batch, got {ids.shape}")
    pad = ids == 0
    interior = pad[:, :-1] & ~pad[:, 1:]
    if interior.any():
        row, col = np.argwhere(interior)[0]
        raise DomainError(f"row {row} has a PAD at position {col} before a non-PAD id; pad only on the right")
    inputs = ids[:, :-1]
    keep = ~pad[:, 1:]
    targets = ids[:, 1:][keep]
    n_scored = len(targets)
    if n_scored == 0:
        raise DomainError("all positions are masked; nothing to learn from")

    cfg = model.config
    p = model.params
    logp, cache = forward_batch(model, inputs, collect=True, keep=keep)
    log_softmax(logp)  # the logits, overwritten with their log-probabilities
    loss = nll_loss(logp, targets, np.ones(n_scored, dtype=bool))

    # d loss / d logits = (softmax - onehot) / n_scored, one row per scored position, written over logp
    dlogits = np.exp(logp, out=logp)
    dlogits[np.arange(n_scored), targets] -= 1.0
    dlogits *= 1.0 / n_scored

    grads = dict.fromkeys(p)  # each gradient is assigned when computed, in model.params order
    scale = np.sqrt(np.asarray(cfg.d_head, dtype=DTYPE))

    grads["w_out"] = cache.pop("hf").T @ dlogits
    d_hf = dlogits @ p["w_out"].T
    del logp, dlogits
    dx, grads["final_ln.g"], grads["final_ln.b"] = _layernorm_backward(d_hf, cache.pop("final_ln"))

    for i in reversed(range(cfg.n_layers)):
        pre = f"layers.{i}"
        lc = cache["layers"].pop()  # released when the next layer's entry replaces it
        # feed-forward residual branch
        grads[f"{pre}.ffn.w2"] = lc["relu"].T @ dx
        grads[f"{pre}.ffn.b2"] = dx.sum(axis=0)
        d_pre = dx @ p[f"{pre}.ffn.w2"].T
        d_pre *= lc["relu"] > 0  # where the pre-activation is > 0, as relu = max(0, pre-activation)
        grads[f"{pre}.ffn.w1"] = lc["f"].T @ d_pre
        grads[f"{pre}.ffn.b1"] = d_pre.sum(axis=0)
        d_f = d_pre @ p[f"{pre}.ffn.w1"].T
        d_x_mid_ln, grads[f"{pre}.ln2.g"], grads[f"{pre}.ln2.b"] = _layernorm_backward(d_f, lc["ln2"])
        d_x_mid = dx + d_x_mid_ln
        # attention residual branch; only attention itself runs on the padded layout
        grads[f"{pre}.attn.wo"] = lc["ctx"].T @ d_x_mid
        d_ctx = _split_heads(_scatter(d_x_mid @ p[f"{pre}.attn.wo"].T, keep), cfg.n_heads)
        attn, vh, qh, kh = lc["attn"], lc["vh"], lc["qh"], lc["kh"]
        d_attn = d_ctx @ vh.transpose(0, 1, 3, 2)
        d_vh = attn.transpose(0, 1, 3, 2) @ d_ctx
        # d_scores = attn * (d_attn - rowsum(d_attn * attn)), computed in d_attn
        d_attn -= np.sum(d_attn * attn, axis=-1, keepdims=True)
        d_attn *= attn
        d_qh = d_attn @ kh
        d_qh /= scale
        d_kh = d_attn.transpose(0, 1, 3, 2) @ qh
        d_kh /= scale
        d_q, d_k, d_v = (_merge_heads(d)[keep] for d in (d_qh, d_kh, d_vh))
        a = lc["a"]
        grads[f"{pre}.attn.wq"] = a.T @ d_q
        grads[f"{pre}.attn.wk"] = a.T @ d_k
        grads[f"{pre}.attn.wv"] = a.T @ d_v
        d_a = d_q @ p[f"{pre}.attn.wq"].T + d_k @ p[f"{pre}.attn.wk"].T + d_v @ p[f"{pre}.attn.wv"].T
        d_x_in_ln, grads[f"{pre}.ln1.g"], grads[f"{pre}.ln1.b"] = _layernorm_backward(d_a, lc["ln1"])
        dx = d_x_mid + d_x_in_ln

    grads["pos_emb"], grads["tok_emb"] = np.zeros_like(p["pos_emb"]), np.zeros_like(p["tok_emb"])
    np.add.at(grads["pos_emb"], np.nonzero(keep)[1], dx)
    np.add.at(grads["tok_emb"], inputs[keep], dx)
    return loss, grads
