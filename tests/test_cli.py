from dataclasses import fields

import numpy as np
import pytest

from ctcnat import cli
from ctcnat.cli import _FIELD_OF_KEY, RunConfig, main, parse_config, serialize_config
from ctcnat.data import SentencePair, build_vocab, read_lines
from ctcnat.evaluation import pearson, sentence_bleu
from ctcnat.model import ModelConfig, init_params
from ctcnat.tensor import Tensor
from ctcnat.training import Checkpoint, CheckpointError, TrainConfig, feasible_pairs, load_checkpoint, save_checkpoint


def write_config(path, **overrides):
    cfg = RunConfig(**overrides)
    path.write_text(serialize_config(cfg), encoding="utf-8")
    return cfg


def synth_corpus(tmp_path, n=24, task="copy", seed=0, prefix="train"):
    src = tmp_path / f"{prefix}.src"
    tgt = tmp_path / f"{prefix}.tgt"
    rc = main(["synth", "--task", task, "--vocab-size", "8", "--n", str(n),
               "--min-len", "2", "--max-len", "4", "--seed", str(seed),
               "--src", str(src), "--tgt", str(tgt)])
    assert rc == 0
    return src, tgt


class TestConfigFile:
    def test_round_trip_is_stable(self):
        cfg = RunConfig(d_model=32, lr=1.5e-3, train_src="x.src")
        assert parse_config(serialize_config(cfg)) == cfg
        assert serialize_config(parse_config(serialize_config(cfg))) == serialize_config(cfg)

    @pytest.mark.parametrize("text, message", [("foo=1\n", "foo"),
                                               ("lr=0.1\nlr=0.2\n", r"^line 2: repeated config key 'lr'$")])
    def test_unknown_key_is_named(self, text, message):
        from ctcnat.cli import UsageError
        with pytest.raises(UsageError, match=message):
            parse_config(text)

    def test_bad_value(self):
        from ctcnat.cli import UsageError
        with pytest.raises(UsageError, match="d_model"):
            parse_config("d_model=huge\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nd_model=24\n")
        assert cfg.d_model == 24

    def test_defaults_serialize_as_before(self):
        """Each shared default comes from ModelConfig or TrainConfig; the text stays the same."""
        assert serialize_config(RunConfig()) == (
            "variant=encoder-decoder\nd_model=64\nff_dim=256\nheads=4\nenc_layers=2\ndec_layers=2\n"
            "k=3\nmax_len=128\ndropout=0.1\nvocab_mode=word\nmin_freq=1\nlr=0.003\nwarmup=200\n"
            "batch_size=16\nmax_steps=1000\nvalid_interval=200\nkeep_top=5\nseed=0\ntrain_src=\n"
            "train_tgt=\nvalid_src=\nvalid_tgt=\ncheckpoint_dir=checkpoints\n")

    def test_every_model_and_training_setting_has_a_config_key(self):
        """No setting of a training run is reachable from the library alone;
        vocab_size comes from the vocabulary."""
        settable = {_FIELD_OF_KEY.get(f.name, f.name) for f in fields(RunConfig)}
        settings = {f.name for f in fields(ModelConfig) + fields(TrainConfig)} - {"vocab_size"}
        assert sorted(settings - settable) == []


class TestTrainCommand:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("text, message", [("foo=1\n", "foo"),
                                               ("lr=0.1\nd_model=32\nlr=0.2\n", "line 3: repeated config key 'lr'")])
    def test_unknown_key_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_nan_learning_rate_exits_2_naming_the_setting(self, tmp_path, capsys):
        src, tgt = synth_corpus(tmp_path)
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, lr=float("nan"), train_src=str(src), train_tgt=str(tgt),
                     valid_src=str(src), valid_tgt=str(tgt), checkpoint_dir=str(tmp_path / "ckpt"))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "learning_rate must be finite and > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("setting,message", [
        ({"lr": float("nan")}, "config key 'lr': learning_rate must be finite and > 0, got nan"),
        ({"dropout": 1.5}, "config key 'dropout': dropout_rate must be in [0, 1), got 1.5"),
        ({"valid_interval": 0}, "config key 'valid_interval': validation_interval must be >= 1, got 0"),
        ({"d_model": 30, "heads": 4}, "config keys 'd_model', 'heads': d_model=30 not divisible by heads=4"),
        ({"heads": 0}, "config key 'heads': heads must be >= 1, got 0"),
        ({"heads": -4}, "config key 'heads': heads must be >= 1, got -4"),
        ({"d_model": 0}, "config key 'd_model': d_model must be >= 1, got 0"),
        ({"ff_dim": 0}, "config key 'ff_dim': ff_dim must be >= 1, got 0"),
        ({"min_freq": 0}, "config key 'min_freq': min_freq must be >= 1, got 0"),
        ({"vocab_mode": "bogus"}, "config key 'vocab_mode': unknown tokenization mode 'bogus'"),
        ({"seed": -1}, "config key 'seed': seed must be >= 0, got -1"),
    ])
    def test_bad_setting_exits_2_naming_the_config_key(self, tmp_path, capsys, setting, message):
        src, tgt = synth_corpus(tmp_path)
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, train_src=str(src), train_tgt=str(tgt), valid_src=str(src), valid_tgt=str(tgt),
                     checkpoint_dir=str(tmp_path / "ckpt"), **setting)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    def test_tiny_training_run(self, tmp_path):
        src, tgt = synth_corpus(tmp_path)
        vsrc, vtgt = synth_corpus(tmp_path, n=6, seed=1, prefix="valid")
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, d_model=16, ff_dim=32, heads=2, enc_layers=1, dec_layers=1,
                     k=2, dropout=0.0, max_steps=4, valid_interval=2, batch_size=4,
                     warmup=2, train_src=str(src), train_tgt=str(tgt),
                     valid_src=str(vsrc), valid_tgt=str(vtgt),
                     checkpoint_dir=str(tmp_path / "ckpt"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "ckpt" / "vocab.txt").is_file()
        assert (tmp_path / "ckpt" / "log.csv").is_file()
        assert list((tmp_path / "ckpt").glob("ckpt-*.bin"))

    def test_skipped_infeasible_pair_count_reaches_stderr(self, tmp_path, capsys):
        src, tgt = synth_corpus(tmp_path)
        vsrc, vtgt = synth_corpus(tmp_path, n=6, seed=1, prefix="valid")
        with open(src, "a", encoding="utf-8") as f:
            f.write("w0\n")
        with open(tgt, "a", encoding="utf-8") as f:
            f.write("w1 w2 w3\n")  # 3 labels need 3 frames; k=2 gives 2
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, d_model=16, ff_dim=32, heads=2, enc_layers=1, dec_layers=1,
                     k=2, dropout=0.0, max_steps=1, valid_interval=1, batch_size=4,
                     warmup=2, train_src=str(src), train_tgt=str(tgt),
                     valid_src=str(vsrc), valid_tgt=str(vtgt),
                     checkpoint_dir=str(tmp_path / "ckpt"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert "skipped 1 infeasible pairs" in capsys.readouterr().err

    def test_pairs_are_admitted_by_feasible_pairs_alone(self, tmp_path, capsys):
        """The target may be longer than max_len: only the source is bounded
        by it, and the k * T_x frame rule decides the rest."""
        src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
        assert main(["synth", "--task", "duplicate-each-token", "--vocab-size", "8", "--n", "200",
                     "--min-len", "2", "--max-len", "5", "--seed", "0", "--src", str(src), "--tgt", str(tgt)]) == 0
        vsrc, vtgt = synth_corpus(tmp_path, n=6, seed=1, prefix="valid")
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, d_model=16, ff_dim=32, heads=2, enc_layers=1, dec_layers=1,
                     k=3, max_len=6, dropout=0.0, max_steps=1, valid_interval=1, batch_size=4,
                     warmup=1, train_src=str(src), train_tgt=str(tgt),
                     valid_src=str(vsrc), valid_tgt=str(vtgt), checkpoint_dir=str(tmp_path / "ckpt"))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 0
        err = capsys.readouterr().err
        vocab = build_vocab(read_lines(src) + read_lines(tgt))
        pairs = [SentencePair(vocab.encode_line(s), vocab.encode_line(t), s, t)
                 for s, t in zip(read_lines(src), read_lines(tgt))]
        model = ModelConfig(vocab_size=vocab.vocab_size, k=3, max_len=6)
        kept, skipped = feasible_pairs(model, pairs)
        assert (len(kept), skipped) == (142, 58)
        assert f"skipped {skipped} infeasible pairs" in err
        assert "dropped" not in err


class TestTranslateCommand:
    @pytest.fixture()
    def trained_dir(self, tmp_path):
        src, tgt = synth_corpus(tmp_path)
        vsrc, vtgt = synth_corpus(tmp_path, n=6, seed=1, prefix="valid")
        cfg_path = tmp_path / "run.cfg"
        write_config(cfg_path, d_model=16, ff_dim=32, heads=2, enc_layers=1, dec_layers=1,
                     k=2, dropout=0.0, max_steps=2, valid_interval=2, batch_size=4,
                     warmup=2, train_src=str(src), train_tgt=str(tgt),
                     valid_src=str(vsrc), valid_tgt=str(vtgt),
                     checkpoint_dir=str(tmp_path / "ckpt"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        return tmp_path

    def test_line_counts_match(self, trained_dir):
        model = sorted((trained_dir / "ckpt").glob("ckpt-*.bin"))[0]
        inp = trained_dir / "in.txt"
        inp.write_text("w0 w1\nw2\nw3 w4 w5\n", encoding="utf-8")
        out = trained_dir / "out.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_a_form_feed_does_not_split_an_input_line(self, trained_dir):
        model = sorted((trained_dir / "ckpt").glob("ckpt-*.bin"))[0]
        inp = trained_dir / "in.txt"
        inp.write_text("w0 w1\fw2 w3\nw4 w5\n", encoding="utf-8")
        out = trained_dir / "out.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8").count("\n") == 2

    def test_empty_input(self, trained_dir):
        model = sorted((trained_dir / "ckpt").glob("ckpt-*.bin"))[0]
        inp = trained_dir / "empty.txt"
        inp.write_text("", encoding="utf-8")
        out = trained_dir / "out.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == ""

    def test_unreadable_model_exits_1(self, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("a\n", encoding="utf-8")
        assert main(["translate", "--model", str(tmp_path / "missing.bin"),
                     "--input", str(inp), "--output", str(tmp_path / "out.txt")]) == 1

    def test_checkpoint_with_key_biases_exits_1_naming_them(self, tmp_path, capsys):
        """A checkpoint from before attention keys lost their bias holds a
        ``bk`` vector per attention sublayer, which no config implies."""
        cfg = ModelConfig(vocab_size=11, d_model=16, ff_dim=32, heads=2, max_len=32)
        params = init_params(cfg, 9)
        biases = sorted(f"{n[:-3]}.bk" for n in params if n.endswith(".wk"))
        assert len(biases) == 6
        params.update((n, Tensor(np.zeros(16))) for n in biases)
        model = tmp_path / "old.bin"
        save_checkpoint(Checkpoint(cfg, params, 1, 0.0), model)
        message = f"parameter names do not match config (missing [], extra {biases})"
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(model)
        assert str(exc.value) == message
        inp = tmp_path / "in.txt"
        inp.write_text("w0\n", encoding="utf-8")
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(tmp_path / "out.txt")]) == 1
        assert capsys.readouterr().err == f"error: CheckpointError: {message}\n"

    def test_zero_beam_is_usage_error_before_loading(self, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("a\n", encoding="utf-8")
        assert main(["translate", "--model", str(tmp_path / "missing.bin"), "--input", str(inp),
                     "--output", str(tmp_path / "out.txt"), "--mode", "beam", "--beam", "0"]) == 2
        assert "beam_width must be >= 1" in capsys.readouterr().err

    def test_vocabulary_that_does_not_fit_the_model_is_usage_error(self, trained_dir, capsys):
        from ctcnat.data import synthetic_vocab
        model = sorted((trained_dir / "ckpt").glob("ckpt-*.bin"))[0]
        model_size = load_checkpoint(model).config.vocab_size
        wrong = synthetic_vocab(model_size + 2)
        wrong.save(trained_dir / "wrong.txt")
        inp = trained_dir / "in.txt"
        inp.write_text("w0 w1\n", encoding="utf-8")
        out = trained_dir / "out.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp), "--output", str(out),
                     "--vocab", str(trained_dir / "wrong.txt")]) == 2
        err = capsys.readouterr().err
        assert f"vocab_size={wrong.vocab_size} but model" in err
        assert f"has vocab_size={model_size}" in err
        assert not out.exists()

    def test_ar_beam_width_one_equals_greedy(self, tmp_path):
        from ctcnat.data import synthetic_vocab
        cfg = ModelConfig(vocab_size=synthetic_vocab(8).vocab_size, d_model=16, ff_dim=32, heads=2,
                          enc_layers=1, dec_layers=1, variant="autoregressive-baseline", max_len=32,
                          dropout_rate=0.0)
        params = init_params(cfg, 7)
        model = tmp_path / "ar.bin"
        save_checkpoint(Checkpoint(cfg, params, 1, 0.0), model)
        synthetic_vocab(8).save(tmp_path / "vocab.txt")
        inp = tmp_path / "in.txt"
        inp.write_text("w0 w1 w2\nw3\n", encoding="utf-8")
        g_out = tmp_path / "greedy.txt"
        b_out = tmp_path / "beam.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(g_out), "--mode", "greedy"]) == 0
        assert main(["translate", "--model", str(model), "--input", str(inp),
                     "--output", str(b_out), "--mode", "beam", "--beam", "1"]) == 0
        assert g_out.read_text() == b_out.read_text()


    @pytest.mark.parametrize("max_steps", ["-1", "33"])
    def test_ar_budget_past_max_len_is_usage_error(self, tmp_path, capsys, max_steps):
        from ctcnat.data import synthetic_vocab
        cfg = ModelConfig(vocab_size=synthetic_vocab(8).vocab_size, d_model=16, ff_dim=32, heads=2,
                          enc_layers=1, dec_layers=1, variant="autoregressive-baseline", max_len=32,
                          dropout_rate=0.0)
        model = tmp_path / "ar.bin"
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 7), 1, 0.0), model)
        synthetic_vocab(8).save(tmp_path / "vocab.txt")
        inp = tmp_path / "in.txt"
        inp.write_text("w0 w1 w2\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        assert main(["translate", "--model", str(model), "--input", str(inp), "--output", str(out),
                     "--max-steps", max_steps]) == 2
        assert f"--max-steps: max_steps must be in 0..32 (the model's max_len), got {max_steps}" in \
            capsys.readouterr().err
        assert not out.exists()


    def test_overlong_line_is_usage_error_before_any_decode(self, tmp_path, capsys, monkeypatch):
        model = _model_at_max_len(tmp_path, "encoder-decoder", 4)
        inp = tmp_path / "in.txt"
        inp.write_text("w0 w1\n" * 300 + "w0 w1 w2 w3 w4\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        monkeypatch.setattr(cli, "translate", _must_not_run)
        assert main(["translate", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
        assert "--input line 301: source length 5 exceeds max_len 4 (--model)" in capsys.readouterr().err
        assert not out.exists()


def _model_at_max_len(directory, variant, max_len, name="model.bin"):
    """A checkpoint of a small ``variant`` model with ``max_len``, and vocab.txt beside it."""
    from ctcnat.data import synthetic_vocab
    vocab = synthetic_vocab(8)
    cfg = ModelConfig(vocab_size=vocab.vocab_size, d_model=16, ff_dim=32, heads=2, enc_layers=1,
                      dec_layers=1, k=2, variant=variant, max_len=max_len, dropout_rate=0.0)
    path = directory / name
    save_checkpoint(Checkpoint(cfg, init_params(cfg, 9), 1, 0.0), path)
    vocab.save(directory / "vocab.txt")
    return path


def _must_not_run(*args, **kwargs):
    raise AssertionError("decoding started before the input was checked")


class TestEvaluateCommand:
    def test_identity_prints_100(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b c d\ne f g h\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp)]) == 0
        assert "100.0" in capsys.readouterr().out

    def test_report_csv(self, tmp_path):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b c d\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                     "--src", str(hyp), "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert lines == ["sentence_id,src_len,out_len,sent_bleu", "0,4,4,100.0000", "corpus_bleu,100.0000",
                         "pearson_bleu_vs_src_len,na"]

    def test_report_correlates_sentence_bleu_with_source_length(self, tmp_path):
        texts = {"hyp": ["a b c d", "a b x", "y z", "a b c"],
                 "ref": ["a b c d", "a b c", "a b", "a c b"],
                 "src": ["s", "s s s", "s s", "s s s s s"]}
        for name, lines in texts.items():
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--hyp", str(tmp_path / "hyp"), "--ref", str(tmp_path / "ref"),
                     "--src", str(tmp_path / "src"), "--report", str(report)]) == 0
        bleus = [sentence_bleu(h.split(), r.split()) for h, r in zip(texts["hyp"], texts["ref"])]
        assert len(set(bleus)) == 4
        want = pearson([1, 3, 2, 5], bleus)
        lines = report.read_text().splitlines()
        assert [line.split(",")[1] for line in lines[1:5]] == ["1", "3", "2", "5"]
        assert lines[-1] == f"pearson_bleu_vs_src_len,{want:.6f}"

    def test_short_src_is_usage_error_and_writes_nothing(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b\nc d\n", encoding="utf-8")
        src = tmp_path / "src.txt"
        src.write_text("a b\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp),
                     "--src", str(src), "--report", str(report)]) == 2
        assert "--src has 1 lines but --hyp has 2" in capsys.readouterr().err
        assert not report.exists()


    def test_line_count_mismatch_is_usage_error(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("a b\nc d\n", encoding="utf-8")
        ref = tmp_path / "ref.txt"
        ref.write_text("a b\n", encoding="utf-8")
        assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        captured = capsys.readouterr()
        assert "--hyp has 2 lines but --ref has 1" in captured.err
        assert captured.out == ""


class TestAverageCommand:
    def test_single_checkpoint_reproduces_bytes(self, tmp_path):
        cfg = ModelConfig(vocab_size=6, d_model=8, ff_dim=16, heads=2, enc_layers=1,
                          dec_layers=1, k=2, max_len=16, dropout_rate=0.0)
        path = tmp_path / "one.bin"
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 3), 5, 42.5), path)
        out = tmp_path / "avg.bin"
        assert main(["average", "--checkpoints", str(path), "--output", str(out)]) == 0
        assert out.read_bytes() == path.read_bytes()

    def test_average_of_two(self, tmp_path):
        cfg = ModelConfig(vocab_size=6, d_model=8, ff_dim=16, heads=2, enc_layers=1,
                          dec_layers=1, k=2, max_len=16, dropout_rate=0.0)
        p1 = init_params(cfg, 4)
        p2 = init_params(cfg, 5)
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_checkpoint(Checkpoint(cfg, p1, 1, 1.0), a)
        save_checkpoint(Checkpoint(cfg, p2, 2, 3.0), b)
        out = tmp_path / "avg.bin"
        assert main(["average", "--checkpoints", str(a), str(b), "--output", str(out)]) == 0
        avg = load_checkpoint(out)
        for name in p1:
            assert np.allclose(avg.params[name].data, (p1[name].data + p2[name].data) / 2.0)


class TestSynthCommand:
    def test_fixed_seed_reproduces_files(self, tmp_path):
        a_src, a_tgt = synth_corpus(tmp_path, seed=5, prefix="a")
        b_src, b_tgt = synth_corpus(tmp_path, seed=5, prefix="b")
        assert a_src.read_bytes() == b_src.read_bytes()
        assert a_tgt.read_bytes() == b_tgt.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--min-len", "0"], "--min-len 0, --max-len 8: bad length range (0, 8)", id="min-len-0"),
        pytest.param(["--min-len", "5", "--max-len", "2"], "--min-len 5, --max-len 2: bad length range (5, 2)",
                     id="max-len-below-min-len"),
        pytest.param(["--vocab-size", "1"], "--vocab-size: synthetic vocab needs >= 2 tokens, got 1",
                     id="vocab-size-1"),
        pytest.param(["--n", "-2"], "--n must be >= 1, got -2", id="n-negative"),
        pytest.param(["--n", "0"], "--n must be >= 1, got 0", id="n-0"),
    ])
    def test_bad_flag_is_usage_error_and_writes_nothing(self, tmp_path, capsys, flags, message):
        paths = ["--src", str(tmp_path / "s.txt"), "--tgt", str(tmp_path / "t.txt"),
                 "--vocab-out", str(tmp_path / "vocab.txt")]
        assert main(["synth", "--task", "copy", "--n", "3", *flags, *paths]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_task_doubles(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        assert main(["synth", "--task", "duplicate-each-token", "--n", "5",
                     "--src", str(src), "--tgt", str(tgt)]) == 0
        for s_line, t_line in zip(src.read_text().splitlines(), tgt.read_text().splitlines()):
            assert len(t_line.split()) == 2 * len(s_line.split())


class TestHelpAndExitCodes:
    @pytest.mark.parametrize("cmd", ["train", "translate", "evaluate", "bench", "average", "synth"])
    def test_every_command_has_help(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert "--" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["synth", "--uknown-flag"]) == 2


def test_bench_command(tmp_path, capsys):
    from ctcnat.data import synthetic_vocab
    cfg = ModelConfig(vocab_size=synthetic_vocab(8).vocab_size, d_model=16, ff_dim=32, heads=2,
                      enc_layers=1, dec_layers=1, k=2, max_len=32, dropout_rate=0.0)
    model = tmp_path / "nar.bin"
    save_checkpoint(Checkpoint(cfg, init_params(cfg, 9), 1, 0.0), model)
    synthetic_vocab(8).save(tmp_path / "vocab.txt")
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\nw2 w3 w4\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    rc = main(["bench", "--input", str(inp), "--nar-model", str(model),
               "--modes", "NAR-greedy", "--reps", "3", "--out", str(out_csv)])
    assert rc == 0
    assert "NAR-greedy" in capsys.readouterr().out
    assert out_csv.read_text().splitlines()[0] == "sentence_id,src_len,out_len,mode,ms"


def test_bench_rejects_models_with_different_vocabularies(tmp_path, capsys):
    from ctcnat.data import synthetic_vocab
    paths = []
    for name, variant, vocab_size in (("ar", "autoregressive-baseline", 8), ("nar", "encoder-decoder", 9)):
        cfg = ModelConfig(vocab_size=synthetic_vocab(vocab_size).vocab_size, d_model=16, ff_dim=32,
                          heads=2, enc_layers=1, dec_layers=1, k=2, variant=variant, max_len=32,
                          dropout_rate=0.0)
        (tmp_path / name).mkdir()
        save_checkpoint(Checkpoint(cfg, init_params(cfg, 9), 1, 0.0), tmp_path / name / "model.bin")
        synthetic_vocab(vocab_size).save(tmp_path / name / "vocab.txt")
        paths.append(str(tmp_path / name / "model.bin"))
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    rc = main(["bench", "--input", str(inp), "--ar-model", paths[0], "--nar-model", paths[1],
               "--out", str(out_csv)])
    assert rc == 2
    assert "different vocabularies" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bench_rejects_a_vocabulary_that_does_not_fit_the_model(tmp_path, capsys):
    from ctcnat.data import synthetic_vocab
    cfg = ModelConfig(vocab_size=8, d_model=16, ff_dim=32, heads=2, enc_layers=1,
                      dec_layers=1, k=2, max_len=32, dropout_rate=0.0)
    model = tmp_path / "nar.bin"
    save_checkpoint(Checkpoint(cfg, init_params(cfg, 9), 1, 0.0), model)
    synthetic_vocab(8).save(tmp_path / "vocab.txt")  # 8 tokens and 3 reserved non-blank ids
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    rc = main(["bench", "--input", str(inp), "--nar-model", str(model),
               "--modes", "NAR-greedy", "--out", str(out_csv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "vocab_size=11 but model" in err and "has vocab_size=8" in err
    assert not out_csv.exists()


def test_bench_ar_budget_past_max_len_is_usage_error(tmp_path, capsys):
    from ctcnat.data import synthetic_vocab
    cfg = ModelConfig(vocab_size=synthetic_vocab(8).vocab_size, d_model=16, ff_dim=32, heads=2,
                      enc_layers=1, dec_layers=1, variant="autoregressive-baseline", max_len=32,
                      dropout_rate=0.0)
    model = tmp_path / "ar.bin"
    save_checkpoint(Checkpoint(cfg, init_params(cfg, 9), 1, 0.0), model)
    synthetic_vocab(8).save(tmp_path / "vocab.txt")
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    rc = main(["bench", "--input", str(inp), "--ar-model", str(model), "--ar-max-steps", "33",
               "--out", str(out_csv)])
    assert rc == 2
    assert "--ar-max-steps: max_steps must be in 0..32 (the model's max_len), got 33" in capsys.readouterr().err
    assert not out_csv.exists()


def test_bench_overlong_line_is_usage_error_before_warm_up(tmp_path, capsys, monkeypatch):
    model = _model_at_max_len(tmp_path, "encoder-decoder", 4)
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n" * 300 + "w0 w1 w2 w3 w4\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    monkeypatch.setattr(cli.bench_mod, "bench_decode", _must_not_run)
    rc = main(["bench", "--input", str(inp), "--nar-model", str(model), "--out", str(out_csv)])
    assert rc == 2
    assert "--input line 301: source length 5 exceeds max_len 4 (--nar-model)" in capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("flag, variant, message", [
    ("--ar-model", "encoder-decoder",
     "--ar-model needs an autoregressive-baseline checkpoint, got encoder-decoder"),
    ("--nar-model", "autoregressive-baseline",
     "--nar-model needs a parallel-labeling checkpoint, got autoregressive-baseline"),
])
def test_bench_checkpoint_of_the_other_family_is_usage_error_before_warm_up(tmp_path, capsys, monkeypatch,
                                                                            flag, variant, message):
    model = _model_at_max_len(tmp_path, variant, 8)
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    monkeypatch.setattr(cli.bench_mod, "bench_decode", _must_not_run)
    rc = main(["bench", "--input", str(inp), flag, str(model), "--out", str(out_csv)])
    assert rc == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not out_csv.exists()


@pytest.mark.parametrize("ar_max_len, nar_max_len, error", [
    (4, 6, "--input line 3: source length 5 exceeds max_len 4 (--ar-model)"),
    (6, 4, "--input line 3: source length 5 exceeds max_len 4 (--nar-model)"),
    (5, 6, None),
])
def test_bench_checks_each_line_against_each_models_own_max_len(tmp_path, capsys, monkeypatch,
                                                                ar_max_len, nar_max_len, error):
    ar = _model_at_max_len(tmp_path, "autoregressive-baseline", ar_max_len, "ar.bin")
    nar = _model_at_max_len(tmp_path, "encoder-decoder", nar_max_len, "nar.bin")
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n\nw0 w1 w2 w3 w4\n", encoding="utf-8")
    benched = []

    def record(pairs, **kwargs):
        benched.append(pairs)
        return [], ""

    monkeypatch.setattr(cli.bench_mod, "bench_decode", record)
    rc = main(["bench", "--input", str(inp), "--ar-model", str(ar), "--nar-model", str(nar)])
    if error is None:
        assert rc == 0
        assert [len(p.source_ids) for p in benched[0]] == [2, 5]  # the empty line is skipped
    else:
        assert rc == 2
        assert error in capsys.readouterr().err
        assert benched == []


@pytest.mark.parametrize("flags, message", [
    (["--reps", "2"], "--reps must be >= 3, got 2"),
    (["--beam", "0"], "beam_width must be >= 1"),
    (["--modes", "NAR-fast"], "unknown mode 'NAR-fast'"),
    (["--modes", ","], "--modes names no mode"),
    (["--modes", "AR-greedy"], "mode AR-greedy needs --ar-model"),
])
def test_bench_bad_flag_is_usage_error_before_loading(tmp_path, capsys, flags, message):
    inp = tmp_path / "in.txt"
    inp.write_text("w0 w1\n", encoding="utf-8")
    out_csv = tmp_path / "times.csv"
    rc = main(["bench", "--input", str(inp), "--nar-model", str(tmp_path / "missing.bin"),
               "--out", str(out_csv), *flags])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out_csv.exists()
