"""Token vocabulary: building, encoding to id sequences, persistence, duration buckets.

Tokens are (kind, value) pairs; the three specials PAD/SOT/EOT always occupy
ids 0/1/2, and the remaining ids are assigned deterministically by sorting on
(kind, value). There is deliberately no UNK token: an unseen token during
encoding is a data bug and raises. `encode` maps tokens to ids and frames
nothing: `dataio.encode_record` chooses a record's head (its agent and weekday,
or SOT) and appends EOT.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError, DomainError, VocabError, decoding

TOKEN_KINDS = ("activity", "agent_id", "cell", "duration_bucket", "special", "staypoint", "weekday")

WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")

PAD_VALUE = "PAD"
SOT_VALUE = "SOT"
EOT_VALUE = "EOT"
SPECIAL_VALUES = (PAD_VALUE, SOT_VALUE, EOT_VALUE)

PAD_ID = 0
SOT_ID = 1
EOT_ID = 2

MAX_DURATION_BUCKET = 12  # dwell times of 12 hours or more share one bucket


@dataclass(frozen=True, order=True)
class Token:
    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind not in TOKEN_KINDS:
            raise DomainError(f"unknown token kind {self.kind!r}")
        if self.kind == "special" and self.value not in SPECIAL_VALUES:
            raise DomainError(f"special token value must be one of {SPECIAL_VALUES}, got {self.value!r}")
        if self.kind == "weekday" and self.value not in WEEKDAYS:
            raise DomainError(f"weekday must be one of {WEEKDAYS}, got {self.value!r}")
        if self.kind == "duration_bucket" and (not self.value.isdigit()):
            raise DomainError(f"duration bucket value must be a non-negative integer, got {self.value!r}")

    def __str__(self) -> str:
        return f"{self.kind}:{self.value}"

    @classmethod
    def parse(cls, text: str) -> "Token":
        """Parse the 'kind:value' string form used in corpus files."""
        if not isinstance(text, str):
            raise DomainError(f"token must be a 'kind:value' string, got {text!r}")
        kind, sep, value = text.partition(":")
        if not sep:
            raise DomainError(f"token string must look like 'kind:value', got {text!r}")
        return cls(kind, value)


PAD = Token("special", PAD_VALUE)
SOT = Token("special", SOT_VALUE)
EOT = Token("special", EOT_VALUE)
_SPECIALS = (PAD, SOT, EOT)


class Vocab:
    """Immutable bijection between tokens and dense integer ids.

    Ids are looked up by a token's (kind, value) pair, a tuple of strings that
    hashes and compares in C, rather than by the Token dataclass, whose hash
    and equality run Python code on every lookup.
    """

    def __init__(self, tokens: Sequence[Token]):
        if tuple(tokens[:3]) != _SPECIALS:
            raise DomainError("vocab must start with PAD, SOT, EOT")
        self._id_to_token: tuple[Token, ...] = tuple(tokens)
        self._key_to_id: dict[tuple[str, str], int] = {(t.kind, t.value): i for i, t in enumerate(tokens)}
        if len(self._key_to_id) != len(self._id_to_token):
            raise DomainError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocab) and self._id_to_token == other._id_to_token

    def id(self, token: Token) -> int:
        try:
            return self._key_to_id[token.kind, token.value]
        except KeyError:
            raise VocabError(f"token {str(token)!r} is not in the vocabulary") from None

    def ids(self, tokens: Sequence[Token]) -> list[int]:
        """The id of each token, in order; the first unknown one is a VocabError, as in id."""
        try:
            return [self._key_to_id[t.kind, t.value] for t in tokens]
        except KeyError:
            for t in tokens:
                self.id(t)
            raise

    def token(self, token_id: int) -> Token:
        if not 0 <= token_id < len(self._id_to_token):
            raise VocabError(f"token id {token_id} out of range [0, {len(self)})")
        return self._id_to_token[token_id]

    def serialize(self) -> str:
        return "".join(f"{t.kind}\t{t.value}\n" for t in self._id_to_token)

    def hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocab":
        """The vocabulary in a file written by save. A line that is not a valid
        'kind<TAB>value' token is a DataError naming it; repeated tokens or
        specials that are not PAD, SOT, EOT first are a DataError naming the file."""
        tokens = []
        with decoding(path), open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                kind, sep, value = line.partition("\t")
                if not sep:
                    raise DataError(f"{path}:{lineno}: expected 'kind<TAB>value'")
                try:
                    tokens.append(Token(kind, value))
                except DomainError as e:
                    raise DataError(f"{path}:{lineno}: {e}") from e
        try:
            return cls(tokens)
        except DomainError as e:
            raise DataError(f"{path}: {e}") from e


def build_vocab(corpus: Iterable[Sequence[Token]]) -> Vocab:
    """Collect every distinct token, prepend specials, assign deterministic ids."""
    seen: set[Token] = set()
    n_sequences = 0
    for seq in corpus:
        n_sequences += 1
        seen.update(seq)
    if n_sequences == 0:
        raise DomainError("corpus is empty; cannot build a vocabulary")
    seen.difference_update(_SPECIALS)
    return Vocab(list(_SPECIALS) + sorted(seen))


@dataclass
class EncodedTrajectory:
    """Integer id sequence plus bookkeeping for scoring and evaluation.

    prefix_len counts the head of the sequence that conditions the rest (the
    record's agent and weekday, or SOT), so location tokens start at
    ids[prefix_len]. Only ids[0] is never scored: every later id is a
    prediction target, conditioning tokens included, so the batch trace,
    sessions and completion prefixes all score pol's weekday as
    P(weekday | agent).
    """

    ids: list[int]
    prefix_len: int
    traj_id: str | None = None
    agent: str | None = None

    def __post_init__(self) -> None:
        if not self.ids:
            raise DomainError("encoded trajectory must contain at least one id")
        if not 0 < self.prefix_len < len(self.ids):
            raise DomainError(
                f"prefix_len must be in (0, {len(self.ids)}), got {self.prefix_len}"
            )
        if PAD_ID in self.ids:
            raise DomainError("PAD must not appear inside an encoded trajectory")


def encode(
    tokens: Sequence[Token],
    vocab: Vocab,
    prefix_len: int,
    traj_id: str | None = None,
    agent: str | None = None,
) -> EncodedTrajectory:
    """The ids of tokens, whose first prefix_len tokens are the conditioning head.

    The tokens are encoded as given: the caller supplies the head and EOT.
    Raises VocabError naming the first unknown token; there is no UNK fallback.
    """
    return EncodedTrajectory(ids=vocab.ids(tokens), prefix_len=prefix_len,
                             traj_id=traj_id, agent=agent)


def bucket_duration(seconds: float) -> Token:
    """Discretize a dwell time into 1-hour buckets, capped at MAX_DURATION_BUCKET."""
    if seconds < 0:
        raise DomainError(f"duration must be >= 0 seconds, got {seconds}")
    return Token("duration_bucket", str(min(int(math.floor(seconds / 3600.0)), MAX_DURATION_BUCKET)))
