"""Example-side encoders that map raw inputs to a fixed vector.

Both text encoders run bidirectional LSTMs over token vectors.  Token
embeddings are inputs, not parameters: gradients stop at the vectors.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .aggregators import _LstmCell
from .errors import ConfigError, ContractError
from .seeding import make_rng


class SentenceEncoder:
    """BiLSTM with a two-layer soft attention over the hidden states.

    Scores are w_a . tanh(W_h h_i), softmax-normalized; the encoding is
    the attention-weighted sum of the bidirectional states, so output
    width is 2 * hidden_dim.
    """

    def __init__(self, input_dim=300, hidden_dim=32, attn_dim=20, rng=None, name="sent"):
        if rng is None:
            rng = make_rng("init", name)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = 2 * hidden_dim
        self.fwd = _LstmCell(input_dim, hidden_dim, rng, name=f"{name}/fwd")
        self.bwd = _LstmCell(input_dim, hidden_dim, rng, name=f"{name}/bwd")
        self.attn_hidden = ad.param((attn_dim, 2 * hidden_dim), rng, name=f"{name}/Wh")
        self.attn_out = ad.param((attn_dim,), rng, name=f"{name}/wa")

    def parameters(self):
        out = self.fwd.parameters()
        out.update(self.bwd.parameters())
        out[self.attn_hidden.name] = self.attn_hidden
        out[self.attn_out.name] = self.attn_out
        return out

    def encode(self, token_vectors):
        """Encode a non-empty token vector sequence."""
        if not len(token_vectors):
            raise ContractError("sentence must have at least one token")
        xs = [ad.constant(np.asarray(v)) for v in token_vectors]
        states = _bilstm_states(self.fwd, self.bwd, xs)
        scores = []
        for h in states:
            e = ad.tanh(ad.matmul(self.attn_hidden, h))
            scores.append(ad.matmul(self.attn_out, e))
        alpha = ad.softmax(ad.stack(scores))
        return ad.matmul(alpha, ad.stack(states))


def _bilstm_states(fwd, bwd, xs):
    forward = fwd.run_all(xs)
    backward = list(reversed(bwd.run_all(list(reversed(xs)))))
    return [ad.concat([f, b]) for f, b in zip(forward, backward)]


@dataclass
class MentionInput:
    """One typed-mention example: the span plus its two contexts, as token vectors."""

    mention: list
    left: list = field(default_factory=list)
    right: list = field(default_factory=list)


class MentionEncoder:
    """Mention span + attentive context encoder.

    The mention vector is the token average.  One shared biLSTM runs
    over the left and the right context separately; position scores
    alpha_i = w_a . tanh(W_e h_i) are normalized by their literal sum
    over both contexts (not a softmax, so weights can be negative but
    always sum to 1).  The output is [context ; hand features ; span],
    width 2*hidden + feature_dim + input_dim.  Examples carry no hand
    features, so that slot holds zeros; "zeros" is the only feature mode.
    """

    def __init__(self, input_dim=300, hidden_dim=100, attn_dim=100, feature_dim=60,
                 feature_mode="zeros", window=10, rng=None, name="mention"):
        if feature_mode != "zeros":
            raise ConfigError(f"feature mode must be 'zeros', got {feature_mode!r}")
        if rng is None:
            rng = make_rng("init", name)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.feature_dim = feature_dim
        self.window = window
        self.output_dim = 2 * hidden_dim + feature_dim + input_dim
        self.context = _LstmCell(input_dim, hidden_dim, rng, name=f"{name}/ctx")
        self.context_back = _LstmCell(input_dim, hidden_dim, rng, name=f"{name}/ctxb")
        self.attn_hidden = ad.param((attn_dim, 2 * hidden_dim), rng, name=f"{name}/We")
        self.attn_out = ad.param((attn_dim,), rng, name=f"{name}/wa")

    def parameters(self):
        out = self.context.parameters()
        out.update(self.context_back.parameters())
        out[self.attn_hidden.name] = self.attn_hidden
        out[self.attn_out.name] = self.attn_out
        return out

    def _context_states(self, tokens):
        xs = [ad.constant(np.asarray(v)) for v in tokens]
        return _bilstm_states(self.context, self.context_back, xs)

    def encode(self, x):
        if not x.mention:
            raise ContractError("mention must have at least one token")
        # keep the window tokens nearest the span
        left = x.left[-self.window:] if self.window else list(x.left)
        right = x.right[:self.window] if self.window else list(x.right)
        if not left and not right:
            raise ContractError("both contexts empty; nothing to attend over")

        v_m = ad.mean(ad.stack([ad.constant(np.asarray(v)) for v in x.mention]), axis=0)

        states = []
        scores = []
        for side in (left, right):
            if not side:
                continue
            side_states = self._context_states(side)
            states.extend(side_states)
            for h in side_states:
                e = ad.tanh(ad.matmul(self.attn_hidden, h))
                scores.append(ad.matmul(self.attn_out, e))
        raw = ad.stack(scores)
        total = ad.sum(raw)
        weights = ad.divide(raw, total)
        v_c = ad.matmul(weights, ad.stack(states))
        v_f = ad.constant(np.zeros(self.feature_dim))
        return ad.concat([v_c, v_f, v_m])


class VectorEncoder:
    """Pass-through for examples that are already feature vectors."""

    def __init__(self, dim):
        self.input_dim = dim
        self.output_dim = dim

    def parameters(self):
        return {}

    def encode(self, vector):
        arr = np.asarray(vector, dtype=np.float64)
        if arr.shape != (self.output_dim,):
            raise ContractError(f"vector shape {arr.shape}, want ({self.output_dim},)")
        return ad.constant(arr)
