"""CTC-based parallel sequence transduction at desk scale."""

from .ctc import collapse, count_alignments, ctc_loss, ctc_oracle_loss
from .data import Vocabulary, build_vocab, gen_synthetic, load_parallel
from .decoding import DecodeOptions, Hypothesis, ar_beam_decode, ar_greedy_decode, ctc_beam_search, greedy_ctc_decode
from .evaluation import corpus_bleu, pearson, sentence_bleu
from .model import (ModelConfig, decode_autoregressive_step, decode_parallel, encode, init_params,
                    self_attention_buffer, source_keys_values, split_states)
from .tensor import GradTape, Tensor
from .training import TrainConfig, average_checkpoints, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"
