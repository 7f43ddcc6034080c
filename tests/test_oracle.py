"""Unit tests for the brute-force theory oracle."""

import itertools
import math

import numpy as np
import pytest

from preflab import lm, oracle
from preflab.errors import ValidationError
from preflab.lm import NGramPolicy


def eos_space(v=3, L=3):
    return oracle.EnumSpace.build(v, L, mode="eos")


def fixed_space(v=3, L=2):
    return oracle.EnumSpace.build(v, L, mode="fixed")


def reference(space, seed=0):
    rng = np.random.default_rng(seed)
    return NGramPolicy.random(space.vocab, 2, rng)


def seq_tuples(space):
    return [tuple(y[:n].tolist()) for y, n in zip(space.sequences, space.lengths)]


def ctx_tuples(space):
    return [tuple(c[:n].tolist()) for c, n in zip(space.contexts, space.ctx_len)]


def renormalized(logmass):
    m = np.max(logmass)
    return np.exp(logmass - (m + math.log(np.sum(np.exp(logmass - m)))))


class TestEnumSpace:
    def test_eos_mode_counts(self):
        space = eos_space(3, 3)
        # interiors over 2 non-EOS ids: 1 + 2 + 4 EOS-terminated sequences
        assert len(space.sequences) == 7
        assert all(y[-1] == space.vocab.eos for y in seq_tuples(space))
        assert all(space.vocab.eos not in y[:-1] for y in seq_tuples(space))

    def test_fixed_mode_counts(self):
        space = fixed_space(3, 2)
        assert len(space.sequences) == 9
        assert len(space.contexts) == 1 + 3

    def test_prefix_free(self):
        for space in (eos_space(4, 3), fixed_space(3, 3)):
            seqs = set(seq_tuples(space))
            for y in seqs:
                for i in range(1, len(y)):
                    assert y[:i] not in seqs

    def test_sequences_unique(self):
        for space in (eos_space(4, 3), fixed_space(3, 3), eos_space(6, 5)):
            assert len(set(seq_tuples(space))) == len(space.sequences)
            assert len(set(ctx_tuples(space))) == len(space.contexts)

    def test_enumeration_order(self):
        # length-major then lexicographic, the order random draws are laid in
        for v, L in ((3, 3), (5, 4)):
            space = eos_space(v, L)
            interiors = [t for t in range(v) if t != space.vocab.eos]
            contexts = [c for n in range(L) for c in itertools.product(interiors, repeat=n)]
            assert ctx_tuples(space) == contexts
            assert seq_tuples(space) == [c + (space.vocab.eos,) for c in contexts]
            space = fixed_space(v, L)
            assert seq_tuples(space) == list(itertools.product(range(v), repeat=L))
            assert ctx_tuples(space) == [
                c for n in range(L) for c in itertools.product(range(v), repeat=n)
            ]

    def test_prefix_closure_contains_empty(self):
        # the empty prefix is context 0, and every sequence starts there
        space = eos_space()
        assert space.ctx_len[0] == 0
        assert np.all(space.seq_ctx[:, 0] == 0)

    def test_caps_enforced(self):
        with pytest.raises(ValidationError):
            oracle.EnumSpace.build(7, 5)
        with pytest.raises(ValidationError):
            oracle.EnumSpace.build(4, 6)
        with pytest.raises(ValidationError):
            oracle.EnumSpace.build(4, 3, mode="banana")

    def test_scoring_domain_covers_prefix_closure(self):
        # every nonempty prefix y[:i+1] is the table entry (seq_ctx[y, i], y[i])
        space = eos_space(3, 3)
        contexts = ctx_tuples(space)
        for k, y in enumerate(seq_tuples(space)):
            for i in range(len(y)):
                c = space.seq_ctx[k, i]
                assert contexts[c] == y[:i]
                if i + 1 < len(y):
                    assert contexts[space.child[c, y[i]]] == y[: i + 1]
                else:
                    assert space.seq_at[c, y[i]] == k

    def test_tables_agree(self):
        for space in (eos_space(4, 3), fixed_space(3, 3), eos_space(3, 1)):
            contexts = ctx_tuples(space)
            code = {c: i for i, c in enumerate(contexts)}
            seqs = {y: k for k, y in enumerate(seq_tuples(space))}
            assert np.array_equal(space.ctx_len, [len(c) for c in contexts])
            for c, ctx in enumerate(contexts):
                for t in range(space.vocab.size):
                    assert space.child[c, t] == code.get(ctx + (t,), -1)
                    assert space.seq_at[c, t] == seqs.get(ctx + (t,), -1)
            for y, k in seqs.items():
                assert space.lengths[k] == len(y)
                expected = [code[y[:i]] for i in range(len(y))]
                expected += [-1] * (space.max_len - len(y))
                assert space.seq_ctx[k].tolist() == expected

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_reference_table_matches_conditional_row(self, v, L, mode):
        space = oracle.EnumSpace.build(v, L, mode=mode)
        rng = np.random.default_rng(20)
        for order, prompt in ((2, ()), (2, (2,)), (3, (0, 2))):
            ref = NGramPolicy.random(space.vocab, order, rng)
            table = oracle.reference_table(space, ref, prompt)
            for c, ctx in enumerate(ctx_tuples(space)):
                assert np.array_equal(table[c], ref.conditional_row(prompt, ctx))

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_ref_logmass_matches_seq_logprob(self, v, L, mode):
        space = oracle.EnumSpace.build(v, L, mode=mode)
        ref = reference(space, seed=21)
        logmass = oracle.ref_logmass(space, ref)
        # both sum the same token log-probs first position first: bitwise
        expected = [lm.seq_logprob(ref, (), y) for y in seq_tuples(space)]
        assert np.array_equal(logmass, expected)

    def test_reference_must_be_ngram_over_the_vocab(self):
        space = eos_space(4, 3)
        with pytest.raises(ValidationError):
            oracle.ref_logmass(space, NGramPolicy.uniform(lm.Vocab(5), 2))
        neural = lm.NeuralPolicy.init(space.vocab, np.random.default_rng(0), context=2)
        with pytest.raises(ValidationError):
            oracle.ref_logmass(space, neural)


class TestBoltzmann:
    def test_zero_reward_recovers_renormalized_reference(self):
        space = eos_space(4, 3)
        ref = reference(space)
        zero = np.zeros(len(space.sequences))
        p = oracle.boltzmann_distribution(space, zero, ref, beta=1.0)
        renorm = renormalized(oracle.ref_logmass(space, ref))
        assert np.max(np.abs(p - renorm)) <= 1e-12

    def test_length_one_space_hand_value(self):
        # uniform reference over the three length-1 sequences, rewards
        # (0, 0, beta ln 3): weights 1 : 1 : 3
        space = oracle.EnumSpace.build(3, 1, "fixed")
        ref = NGramPolicy.uniform(space.vocab, 2)
        beta = 1.3
        reward = np.array([0.0, 0.0, beta * math.log(3.0)])
        p = oracle.boltzmann_distribution(space, reward, ref, beta)
        assert np.allclose(p, [0.2, 0.2, 0.6], atol=1e-12)

    def test_normalization(self):
        space = eos_space(4, 3)
        ref = reference(space)
        rng = np.random.default_rng(1)
        for beta in (0.5, 1.0, 1.5):
            p = oracle.boltzmann_distribution(
                space, oracle.random_reward(space, rng), ref, beta
            )
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12

    def test_large_beta_approaches_reference(self):
        space = eos_space(4, 3)
        ref = reference(space)
        rng = np.random.default_rng(2)
        reward = oracle.random_reward(space, rng)
        p = oracle.boltzmann_distribution(space, reward, ref, beta=1e6)
        renorm = renormalized(oracle.ref_logmass(space, ref))
        assert np.max(np.abs(p - renorm)) <= 1e-5

    def test_beta_must_be_positive(self):
        space = eos_space()
        with pytest.raises(ValidationError):
            oracle.boltzmann_distribution(space, np.zeros(len(space.sequences)), reference(space), 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        space = eos_space(4, 3)
        ref = reference(space)
        reward = np.zeros(len(space.sequences))
        rstar = np.zeros(space.child.shape)
        policies = oracle.random_policies(space, 2, np.random.default_rng(0))
        calls = [
            lambda: oracle.boltzmann_distribution(space, reward, ref, beta),
            lambda: oracle.kl_objective(space, policies[0], reward, ref, beta),
            lambda: oracle.kl_objective_batch(space, policies, reward, ref, beta),
            lambda: oracle.reparameterize(space, rstar, ref, beta),
            lambda: oracle.additive_decompose(space, reward, "soft_value", ref, beta),
            lambda: oracle.energy_additivity_residual(space, rstar, ref, beta),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    def test_wrong_reward_shape_rejected(self):
        space = eos_space(4, 3)
        with pytest.raises(ValidationError):
            oracle.boltzmann_distribution(space, np.zeros(3), reference(space), 1.0)
        with pytest.raises(ValidationError):
            oracle.reparameterize(space, np.zeros(len(space.sequences)), reference(space), 1.0)


class TestKlObjective:
    def test_reference_policy_gets_expected_reward(self):
        # fixed-length space: the chain-rule masses already sum to one
        space = fixed_space(3, 2)
        ref = reference(space)
        logmass = oracle.ref_logmass(space, ref)
        masses = np.exp(logmass)
        assert abs(float(np.sum(masses)) - 1.0) <= 1e-12
        rng = np.random.default_rng(3)
        reward = oracle.random_reward(space, rng)
        j = oracle.kl_objective(space, masses, reward, ref, beta=1.0)
        assert j == pytest.approx(float(masses @ reward), abs=1e-12)
        zero = np.zeros(len(space.sequences))
        assert oracle.kl_objective(space, masses, zero, ref, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_policy_rejected(self):
        space = fixed_space(3, 2)
        bad = np.full(len(space.sequences), 0.2)
        with pytest.raises(ValidationError):
            oracle.kl_objective(space, bad, np.zeros(len(space.sequences)), reference(space), 1.0)

    def test_optimality_of_boltzmann(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=4)
        rng = np.random.default_rng(5)
        reward = oracle.random_reward(space, rng)
        beta = 1.0
        best = oracle.kl_objective(
            space, oracle.boltzmann_distribution(space, reward, ref, beta), reward, ref, beta
        )
        for policy in oracle.random_policies(space, 1000, rng):
            assert best - oracle.kl_objective(space, policy, reward, ref, beta) >= -1e-12

    def test_batch_objective_matches_scalar(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=6)
        rng = np.random.default_rng(7)
        reward = oracle.random_reward(space, rng)
        policies = oracle.random_policies(space, 50, rng)
        batch = oracle.kl_objective_batch(space, policies, reward, ref, 1.0)
        singles = [oracle.kl_objective(space, p, reward, ref, 1.0) for p in policies]
        assert np.max(np.abs(batch - np.asarray(singles))) <= 1e-10


class TestDecomposition:
    def test_terminal_round_trip_exact_over_1000_tables(self):
        space = eos_space(3, 3)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            reward = oracle.random_reward(space, rng, scale=3.0)
            rstar = oracle.additive_decompose(space, reward)
            assert oracle.decomposition_residual(space, reward, rstar) == 0.0

    def test_length_one_sequences_keep_reward(self):
        space = eos_space(3, 3)
        rng = np.random.default_rng(9)
        reward = oracle.random_reward(space, rng)
        rstar = oracle.additive_decompose(space, reward)
        ones = np.flatnonzero(space.lengths == 1)
        assert ones.size > 0
        for k in ones:
            assert rstar[space.seq_ctx[k, 0], space.sequences[k, 0]] == reward[k]

    def test_uniform_round_trips_per_sequence(self):
        space = fixed_space(3, 3)
        rng = np.random.default_rng(10)
        reward = oracle.random_reward(space, rng)
        parts = oracle.uniform_decomposition(space, reward)
        for k, n in enumerate(space.lengths):
            assert np.all(parts[k, n:] == 0.0)
            total = 0.0
            for value in parts[k, :n]:
                assert value == reward[k] / n
                total += value
            assert abs(total - reward[k]) <= 1e-12

    def test_soft_value_round_trips_up_to_constant(self):
        space = eos_space(3, 3)
        ref = reference(space, seed=11)
        rng = np.random.default_rng(11)
        reward = oracle.random_reward(space, rng)
        rstar = oracle.additive_decompose(
            space, reward, scheme="soft_value", ref=ref, beta=1.0
        )
        deviations = []
        for k, n in enumerate(space.lengths):
            total = 0.0
            for i in range(n):
                total += rstar[space.seq_ctx[k, i], space.sequences[k, i]]
            deviations.append(total - reward[k])
        assert max(deviations) - min(deviations) <= 1e-10

    def test_unknown_scheme(self):
        space = eos_space()
        with pytest.raises(ValidationError):
            oracle.additive_decompose(space, np.zeros(len(space.sequences)), scheme="magic")

    def test_energy_additivity(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=12)
        rng = np.random.default_rng(12)
        for _ in range(20):
            rstar = oracle.random_prefix_reward(space, rng)
            assert oracle.energy_additivity_residual(space, rstar, ref, 1.0) <= 1e-12


class TestReparameterize:
    def test_zero_reward_returns_reference(self):
        space = eos_space(3, 3)
        ref = reference(space, seed=13)
        rstar = np.zeros(space.child.shape)
        result = oracle.reparameterize(space, rstar, ref, beta=1.0)
        for c, ctx in enumerate(ctx_tuples(space)):
            assert np.max(np.abs(result.policy[c] - ref.conditional_row((), ctx))) <= 1e-12
            assert abs(result.shift[c]) <= 1e-12

    def test_rows_normalize(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=14)
        rng = np.random.default_rng(14)
        result = oracle.reparameterize(
            space, oracle.random_prefix_reward(space, rng), ref, beta=0.7
        )
        assert result.policy.shape == (len(space.contexts), space.vocab.size)
        for row in result.policy:
            assert abs(float(np.sum(np.exp(row))) - 1.0) <= 1e-12

    def test_representative_residual_tiny(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            space = eos_space(int(rng.integers(3, 6)), int(rng.integers(1, 5)))
            ref = reference(space, seed=seed)
            rstar = oracle.random_prefix_reward(space, rng)
            result = oracle.reparameterize(space, rstar, ref, beta=(0.5, 1.0, 1.5)[seed % 3])
            assert result.max_residual <= 1e-10

    def test_shift_invariance(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=16)
        rng = np.random.default_rng(16)
        rstar = oracle.random_prefix_reward(space, rng)
        assert oracle.shift_invariance_residual(space, rstar, ref, 1.0, rng) <= 1e-12

    def test_reconstruction_spread_small(self):
        for mode in ("eos", "fixed"):
            space = oracle.EnumSpace.build(3, 3, mode=mode)
            ref = reference(space, seed=17)
            rng = np.random.default_rng(17)
            for _ in range(20):
                reward = oracle.random_reward(space, rng)
                assert oracle.reconstruction_spread(space, reward, ref, 1.0) <= 1e-9

    def test_nan_prefix_reward_gives_nan_residual(self):
        space = eos_space(4, 3)
        ref = reference(space, seed=18)
        rstar = oracle.random_prefix_reward(space, np.random.default_rng(18))
        # the last prefix of the last sequence: Python's max(0.0, nan) would
        # have hidden it behind the finite residuals before it
        rstar[space.seq_ctx[-1, -1], space.sequences[-1, -1]] = math.nan
        assert math.isnan(oracle.reparameterize(space, rstar, ref, 1.0).max_residual)
        assert math.isnan(oracle.energy_additivity_residual(space, rstar, ref, 1.0))
        reward = np.zeros(len(space.sequences))
        assert math.isnan(oracle.decomposition_residual(space, reward, rstar))


class TestCertificates:
    def test_all_checks_pass(self):
        certs = oracle.run_checks(3, 3, seed=0, which="all")
        assert [c["check"] for c in certs] == [
            "boltzmann", "optimality", "decompose", "reparam", "theorem1",
        ]
        assert all(c["pass"] for c in certs)
        assert all(c["max_residual"] <= c["tol"] for c in certs)

    def test_single_check_selection(self):
        certs = oracle.run_checks(3, 2, seed=1, which="reparam")
        assert len(certs) == 1 and certs[0]["check"] == "reparam"

    def test_unknown_check_rejected(self):
        with pytest.raises(ValidationError):
            oracle.run_checks(3, 3, seed=0, which="everything")

    def test_repeatable(self):
        a = oracle.run_checks(3, 3, seed=5, which="all")
        b = oracle.run_checks(3, 3, seed=5, which="all")
        assert a == b

    def test_nan_residual_does_not_certify(self, monkeypatch):
        real = oracle.reparameterize
        calls = []

        def later_draw_nan(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(None)
            if len(calls) == 4:
                result.max_residual = math.nan
            return result

        monkeypatch.setattr(oracle, "reparameterize", later_draw_nan)
        cert = oracle.run_checks(3, 2, seed=0, which="reparam")[0]
        assert math.isnan(cert["max_residual"]) and cert["pass"] is False
