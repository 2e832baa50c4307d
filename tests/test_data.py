import logging

import numpy as np
import pytest

from ctcnat.data import (
    BLANK_ID,
    EOS_ID,
    PAD_ID,
    UNK_ID,
    CorpusError,
    SentencePair,
    Vocabulary,
    VocabularyError,
    batch_pairs,
    build_vocab,
    gen_synthetic,
    load_parallel,
    split_lines,
    synthetic_vocab,
)


class TestBuildVocab:
    def test_frequency_then_token_order(self):
        vocab = build_vocab(["a b", "a"], mode="word", min_freq=1)
        assert vocab.token_to_id["a"] == 4  # higher frequency wins the smaller id
        assert vocab.token_to_id["b"] == 5

    def test_min_freq_filters_and_unk_covers(self):
        vocab = build_vocab(["a b", "a"], mode="word", min_freq=2)
        assert "b" not in vocab.token_to_id
        assert vocab.encode_line("a b") == (4, UNK_ID)

    def test_char_mode(self):
        vocab = build_vocab(["ab"], mode="char")
        assert set(vocab.id_to_token[4:]) == {"a", "b"}

    def test_empty_corpus(self):
        with pytest.raises(CorpusError):
            build_vocab([], mode="word")

    def test_reserved_ids_never_produced(self):
        vocab = build_vocab(["<pad> </s> x"], mode="word")
        ids = vocab.encode_line("<pad> </s> x")
        assert BLANK_ID not in ids and PAD_ID not in ids and EOS_ID not in ids

    def test_deterministic_ties(self):
        v1 = build_vocab(["c b a"], mode="word")
        v2 = build_vocab(["a b c"], mode="word")
        assert v1.id_to_token == v2.id_to_token  # equal freq sorts by token

    def test_unknown_mode_rejected_before_any_line_is_read(self):
        def lines():
            raise AssertionError("a line was read")
            yield "a"

        with pytest.raises(VocabularyError, match="unknown tokenization mode 'bpe'"):
            build_vocab(lines(), mode="bpe")
        with pytest.raises(VocabularyError, match="unknown tokenization mode 'bpe'"):
            Vocabulary.from_tokens(["a"], mode="bpe").tokenize("a")

    @pytest.mark.parametrize("mode", ["word", "char"])
    def test_every_token_of_a_corpus_line_is_in_its_vocabulary(self, mode):
        line = " a  bc\td "
        assert UNK_ID not in build_vocab([line], mode=mode).encode_line(line)


class TestVocabularyRoundTrips:
    def test_word_tokenize_detokenize(self):
        vocab = build_vocab(["the cat sat"], mode="word")
        line = "the cat sat"
        tokens = vocab.decode_ids(vocab.encode_line(line))
        assert vocab.detokenize(tokens) == line

    def test_save_load(self, tmp_path):
        vocab = build_vocab(["gamma alpha beta", "alpha"], mode="word")
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded.id_to_token == vocab.id_to_token
        # line number is id - 4
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == vocab.id_to_token[4]

    def test_decode_rejects_bad_ids(self):
        vocab = build_vocab(["x"], mode="word")
        with pytest.raises(VocabularyError):
            vocab.decode_ids([99])

    def test_load_rejects_an_unknown_mode(self, tmp_path):
        path = tmp_path / "vocab.txt"
        build_vocab(["a b"]).save(path)
        with pytest.raises(VocabularyError, match="^unknown tokenization mode 'wrd'$"):
            Vocabulary.load(path, mode="wrd")

    def test_an_unknown_mode_is_rejected_before_detokenize(self):
        with pytest.raises(VocabularyError, match="^unknown tokenization mode 'bpe'$"):
            Vocabulary.from_tokens(["a", "b"], mode="bpe").detokenize(["a", "b"])


class TestLoadParallel:
    def test_pairs_in_order(self, tmp_path):
        (tmp_path / "s.txt").write_text("a b\nb\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("b\na b\n", encoding="utf-8")
        vocab = build_vocab(["a b", "b", "a b"], mode="word")
        pairs = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt", vocab)
        assert len(pairs) == 2
        assert pairs[0].source_text == "a b"
        assert pairs[0].target_ids == vocab.encode_line("b")

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "s.txt").write_text("a\nb\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("a\n", encoding="utf-8")
        vocab = build_vocab(["a b"], mode="word")
        with pytest.raises(CorpusError, match="2.*1"):
            load_parallel(tmp_path / "s.txt", tmp_path / "t.txt", vocab)

    def test_all_unknown_line_is_kept(self, tmp_path):
        (tmp_path / "s.txt").write_text("zzz qqq\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("zzz\n", encoding="utf-8")
        vocab = build_vocab(["a"], mode="word")
        pairs = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt", vocab)
        assert pairs[0].source_ids == (UNK_ID, UNK_ID)

    def test_drops_and_logs_empty_pairs(self, tmp_path, caplog):
        (tmp_path / "s.txt").write_text("a\n\na a a\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("a\na\na\n", encoding="utf-8")
        vocab = build_vocab(["a"], mode="word")
        with caplog.at_level(logging.INFO):
            pairs = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt", vocab)
        assert [p.source_text for p in pairs] == ["a", "a a a"]
        assert "dropped 1 empty-after-tokenization pairs" in caplog.text

    def test_a_form_feed_does_not_split_a_line(self, tmp_path):
        (tmp_path / "s.txt").write_text("w0\fw1\nw2\n", encoding="utf-8")
        (tmp_path / "t.txt").write_text("w0\nw1\fw2\n", encoding="utf-8")
        vocab = build_vocab(["w0 w1 w2"], mode="word")
        pairs = load_parallel(tmp_path / "s.txt", tmp_path / "t.txt", vocab)
        assert [(p.source_text, p.target_text) for p in pairs] == [("w0\fw1", "w0"), ("w2", "w1\fw2")]
        assert pairs[0].source_ids == vocab.encode_line("w0 w1")


@pytest.mark.parametrize("text,lines", [
    ("", []), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""]), ("\n", [""]),
    ("a\x0bb\x1c\x85\u2028c\nd\n", ["a\x0bb\x1c\x85\u2028c", "d"]),
])
def test_split_lines_breaks_at_newlines_only(text, lines):
    assert split_lines(text) == lines


class TestBatching:
    def test_round_trip(self):
        pairs = [SentencePair((4, 5), (5,), "a b", "b"),
                 SentencePair((6,), (4, 5, 6), "c", "a b c")]
        batch = batch_pairs(pairs)
        assert batch.sources == ((4, 5), (6,))
        assert batch.targets == ((5,), (4, 5, 6))

    def test_empty_rejected(self):
        with pytest.raises(CorpusError):
            batch_pairs([])


class TestSynthetic:
    def test_copy_targets_equal_sources(self):
        pairs = gen_synthetic("copy", 10, 50, (2, 6), seed=3)
        assert all(p.target_ids == p.source_ids for p in pairs)

    def test_reverse(self):
        pairs = gen_synthetic("reverse", 10, 20, (2, 6), seed=4)
        assert all(p.target_ids == p.source_ids[::-1] for p in pairs)

    def test_duplicate_each_token(self):
        vocab = synthetic_vocab(6)
        pairs = gen_synthetic("duplicate-each-token", 6, 20, (2, 4), seed=5, vocab=vocab)
        for p in pairs:
            want = tuple(x for t in p.source_ids for x in (t, t))
            assert p.target_ids == want
            assert len(p.target_ids) == 2 * len(p.source_ids)

    def test_same_seed_same_corpus(self):
        a = gen_synthetic("copy", 8, 30, (1, 5), seed=9)
        b = gen_synthetic("copy", 8, 30, (1, 5), seed=9)
        assert a == b

    def test_lengths_respect_range(self):
        pairs = gen_synthetic("copy", 8, 100, (3, 5), seed=1)
        lengths = {len(p.source_ids) for p in pairs}
        assert lengths <= {3, 4, 5}

    def test_unknown_task(self):
        with pytest.raises(CorpusError):
            gen_synthetic("sort", 8, 5, (1, 3), seed=0)

    def test_vocab_too_small(self):
        with pytest.raises(VocabularyError):
            synthetic_vocab(1)
