from __future__ import annotations

import numpy as np
import pytest

from kgzsl import autodiff as ad
from kgzsl import encoders
from kgzsl.errors import ConfigError, ContractError


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def tokens(r, n, d):
    return [r.normal(size=d) for _ in range(n)]


class TestSentenceEncoder:
    def test_output_width(self):
        enc = encoders.SentenceEncoder(input_dim=4, hidden_dim=3, attn_dim=2, rng=rng(1))
        out = enc.encode(tokens(rng(2), 5, 4))
        assert out.data.shape == (6,)

    def test_zero_scorer_reduces_to_state_mean(self):
        enc = encoders.SentenceEncoder(input_dim=3, hidden_dim=2, attn_dim=2, rng=rng(5))
        enc.attn_out.data = np.zeros(2)
        toks = tokens(rng(6), 3, 3)
        out = enc.encode(toks)
        xs = [ad.constant(t) for t in toks]
        states = encoders._bilstm_states(enc.fwd, enc.bwd, xs)
        expect = np.mean([s.data for s in states], axis=0)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_length_out_of_range(self):
        enc = encoders.SentenceEncoder(input_dim=2, hidden_dim=2, attn_dim=2, rng=rng(7))
        with pytest.raises(ContractError):
            enc.encode([])

    def test_grad_check(self):
        enc = encoders.SentenceEncoder(input_dim=3, hidden_dim=2, attn_dim=2, rng=rng(9))
        toks = tokens(rng(10), 3, 3)
        weights = ad.constant(rng(11).normal(size=4))

        def fn():
            return ad.sum(ad.multiply(enc.encode(toks), weights))

        report = ad.grad_check(fn, enc.parameters())
        assert report.passed, report.max_rel_err


def mention_input(r, d, n_mention=2, n_left=3, n_right=2, **kw):
    return encoders.MentionInput(
        mention=tokens(r, n_mention, d),
        left=tokens(r, n_left, d),
        right=tokens(r, n_right, d),
        **kw,
    )


class TestMentionEncoder:
    def test_output_width(self):
        enc = encoders.MentionEncoder(input_dim=4, hidden_dim=3, attn_dim=2, feature_dim=5, rng=rng(20))
        out = enc.encode(mention_input(rng(21), 4))
        assert out.data.shape == (2 * 3 + 5 + 4,)

    def test_mention_slot_is_token_average(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, rng=rng(22))
        x = mention_input(rng(23), 3, n_mention=3)
        out = enc.encode(x)
        np.testing.assert_allclose(out.data[-3:], np.mean(x.mention, axis=0), atol=1e-12)

    def test_zeros_feature_mode(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=4, rng=rng(24))
        out = enc.encode(mention_input(rng(25), 3))
        np.testing.assert_array_equal(out.data[4:8], np.zeros(4))

    def test_feature_mode_other_than_zeros_rejected(self):
        for mode in ("supplied", "learned"):
            with pytest.raises(ConfigError, match="feature mode must be 'zeros'"):
                encoders.MentionEncoder(feature_mode=mode)

    def test_attention_weights_literal_sum_to_one(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=3, feature_dim=2, rng=rng(32))
        x = mention_input(rng(33), 3, n_left=3, n_right=3)
        states = []
        scores = []
        for side in (x.left, x.right):
            side_states = enc._context_states(side)
            states.extend(side_states)
            for h in side_states:
                e = ad.tanh(ad.matmul(enc.attn_hidden, h))
                scores.append(ad.matmul(enc.attn_out, e).data)
        weights = np.asarray(scores) / np.sum(scores)
        assert abs(weights.sum() - 1.0) < 1e-12
        # literal normalization, not softmax: negative scores stay negative
        assert (np.asarray(scores) < 0).any()
        assert (weights < 0).any()
        out = enc.encode(x)
        v_c = weights @ np.stack([s.data for s in states])
        np.testing.assert_allclose(out.data[:4], v_c, atol=1e-10)

    def test_window_keeps_tokens_nearest_the_span(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, window=2, rng=rng(34))
        r = rng(35)
        far_left = tokens(r, 3, 3)
        near_left = tokens(r, 2, 3)
        right = tokens(r, 2, 3)
        mention = tokens(r, 1, 3)
        full = encoders.MentionInput(mention=mention, left=far_left + near_left, right=right)
        trimmed = encoders.MentionInput(mention=mention, left=near_left, right=right)
        assert enc.encode(full).data.tobytes() == enc.encode(trimmed).data.tobytes()

    def test_empty_mention_rejected(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, rng=rng(36))
        with pytest.raises(ContractError):
            enc.encode(encoders.MentionInput(mention=[], left=tokens(rng(37), 2, 3)))

    def test_both_contexts_empty_rejected(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, rng=rng(38))
        with pytest.raises(ContractError):
            enc.encode(encoders.MentionInput(mention=tokens(rng(39), 1, 3)))

    def test_one_sided_context_works(self):
        enc = encoders.MentionEncoder(input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, rng=rng(40))
        out = enc.encode(
            encoders.MentionInput(mention=tokens(rng(41), 1, 3), left=tokens(rng(42), 2, 3))
        )
        assert out.data.shape == (4 + 2 + 3,)

    def test_grad_check(self):
        enc = encoders.MentionEncoder(
            input_dim=3, hidden_dim=2, attn_dim=2, feature_dim=2, feature_mode="zeros", rng=rng(43),
        )
        x = mention_input(rng(44), 3, n_left=2, n_right=2)
        weights = ad.constant(rng(45).normal(size=enc.output_dim))

        def fn():
            return ad.sum(ad.multiply(enc.encode(x), weights))

        report = ad.grad_check(fn, enc.parameters())
        assert report.passed, report.max_rel_err


class TestVectorEncoder:
    def test_passthrough(self):
        enc = encoders.VectorEncoder(3)
        out = enc.encode([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])
        assert not out.requires_grad
        assert enc.parameters() == {}

    def test_shape_mismatch(self):
        enc = encoders.VectorEncoder(3)
        with pytest.raises(ContractError):
            enc.encode([1.0, 2.0])
