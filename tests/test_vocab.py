import pytest
from hypothesis import given
from hypothesis import strategies as st

from trajlm.dataio import CorpusRecord, encode_record, full_tokens
from trajlm.errors import DomainError, VocabError
from trajlm.vocab import (
    EOT_ID,
    PAD_ID,
    SOT_ID,
    Token,
    Vocab,
    bucket_duration,
    build_vocab,
    encode,
)


def sp(name):
    return Token("staypoint", name)


def test_build_vocab_counts_and_specials():
    vocab = build_vocab([[sp("work")], [sp("apartment")]])
    assert len(vocab) == 5
    assert vocab.token(PAD_ID).value == "PAD"
    assert vocab.token(SOT_ID).value == "SOT"
    assert vocab.token(EOT_ID).value == "EOT"


def test_build_vocab_empty_token_sequences():
    assert len(build_vocab([[], []])) == 3


def test_build_vocab_empty_corpus_rejected():
    with pytest.raises(DomainError):
        build_vocab([])


def test_build_vocab_order_independent():
    toks = [sp("a"), sp("b"), Token("weekday", "Monday"), Token("agent_id", "x")]
    v1 = build_vocab([toks])
    v2 = build_vocab([list(reversed(toks)), [sp("b")]])
    assert v1 == v2
    assert v1.serialize() == v2.serialize()


def test_token_string_round_trip():
    t = Token("cell", "3,7")
    assert Token.parse(str(t)) == t
    with pytest.raises(DomainError):
        Token.parse("no-separator")


def test_token_validation():
    with pytest.raises(DomainError):
        Token("nope", "x")
    with pytest.raises(DomainError):
        Token("special", "UNK")
    with pytest.raises(DomainError):
        Token("weekday", "Funday")
    with pytest.raises(DomainError):
        Token("duration_bucket", "-1")


def test_encode_pol_layout_prefix():
    rec = CorpusRecord("t1", [sp("work")], agent="agent_7", weekday="Monday")
    vocab = build_vocab([full_tokens(rec)])
    enc = encode_record(rec, vocab)
    assert enc.prefix_len == 2
    assert enc.ids[-1] == EOT_ID
    assert len(enc.ids) == 4


def test_encode_sot_layout_prefix():
    tokens = [Token("cell", "1,2"), Token("cell", "2,2")]
    vocab = build_vocab([tokens])
    enc = encode_record(CorpusRecord("t1", tokens), vocab)
    assert enc.prefix_len == 1
    assert enc.ids[0] == SOT_ID
    assert enc.ids[-1] == EOT_ID


def test_encode_unknown_token_is_an_error():
    vocab = build_vocab([[sp("work")]])
    with pytest.raises(VocabError) as exc:
        encode([sp("beach")], vocab, 1)
    assert str(exc.value) == "token 'staypoint:beach' is not in the vocabulary"


def test_ids_are_the_id_of_each_token_and_name_the_first_unknown():
    tokens = [sp("work"), sp("home"), sp("work"), Token("special", "EOT")]
    vocab = build_vocab([tokens])
    assert vocab.ids(tokens) == [vocab.id(t) for t in tokens]
    with pytest.raises(VocabError) as exc:
        vocab.ids([sp("work"), sp("beach"), sp("gym")])
    assert str(exc.value) == "token 'staypoint:beach' is not in the vocabulary"


def test_decode_pad_and_range():
    vocab = build_vocab([[sp("work")]])
    assert vocab.token(0) == Token("special", "PAD")
    with pytest.raises(VocabError):
        vocab.token(len(vocab))


@given(st.lists(st.sampled_from(["work", "home", "gym", "park"]), min_size=1, max_size=8),
       st.booleans())
def test_encode_decode_round_trip(names, with_agent):
    tokens = [sp(n) for n in names]
    agent = "a" if with_agent else None
    vocab = build_vocab([[Token("agent_id", "a"), *tokens]])
    enc = encode_record(CorpusRecord("t1", tokens, agent=agent), vocab)
    decoded = [vocab.token(i) for i in enc.ids]
    assert decoded[0] == (Token("agent_id", "a") if with_agent else Token("special", "SOT"))
    assert decoded[-1] == Token("special", "EOT")
    assert decoded[1:-1] == tokens


def test_special_ids_stable_across_rebuilds():
    toks = [sp("a"), Token("cell", "0,0")]
    v1, v2 = build_vocab([toks]), build_vocab([toks])
    assert (v1.id(Token("special", "PAD")), v1.id(Token("special", "SOT")), v1.id(Token("special", "EOT"))) == (0, 1, 2)
    assert v1.hash() == v2.hash()


def test_vocab_file_round_trip(tmp_path):
    vocab = build_vocab([[sp("work"), Token("cell", "4,2"), Token("duration_bucket", "3")]])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "special\tPAD"
    assert Vocab.load(path) == vocab
    assert Vocab.load(path).hash() == vocab.hash()


def test_bucket_duration_examples():
    assert bucket_duration(0).value == "0"
    assert bucket_duration(3599).value == "0"
    assert bucket_duration(3600).value == "1"
    assert bucket_duration(12 * 3600 - 1).value == "11"
    assert bucket_duration(12 * 3600).value == "12"
    assert bucket_duration(100 * 3600).value == "12"
    with pytest.raises(DomainError):
        bucket_duration(-1)


def test_encoded_trajectory_invariants():
    vocab = build_vocab([[sp("work")]])
    enc = encode_record(CorpusRecord("t1", [sp("work")]), vocab)
    assert 0 < enc.prefix_len < len(enc.ids)
    assert PAD_ID not in enc.ids
