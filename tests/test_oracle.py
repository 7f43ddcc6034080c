"""Unit tests for the brute-force theory oracle."""

import itertools
import math
import tracemalloc

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


def ref_table(space, seed=0):
    return oracle.reference_table(space, reference(space, seed))


def ref_mass(space, seed=0):
    return oracle.ref_logmass(space, ref_table(space, seed))


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
        with pytest.raises(ValidationError, match="unknown space mode 'banana'"):
            oracle.EnumSpace.build(4, 3, mode="banana")
        for mode in oracle.MODES:
            assert oracle.EnumSpace.build(3, 2, mode).mode == mode

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
        logmass = oracle.ref_logmass(space, oracle.reference_table(space, ref))
        # both sum the same token log-probs first position first: bitwise
        expected = [lm.seq_logprob(ref, (), y) for y in seq_tuples(space)]
        assert np.array_equal(logmass, expected)

    def test_reference_must_be_ngram_over_the_vocab(self):
        space = eos_space(4, 3)
        with pytest.raises(ValidationError):
            oracle.reference_table(space, NGramPolicy.uniform(lm.Vocab(5), 2))
        neural = lm.NeuralPolicy.init(space.vocab, np.random.default_rng(0), context=2)
        with pytest.raises(ValidationError):
            oracle.reference_table(space, neural)


class TestBoltzmann:
    def test_zero_reward_recovers_renormalized_reference(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        zero = np.zeros(len(space.sequences))
        p = oracle.boltzmann_distribution(space, zero, logmass, beta=1.0)
        renorm = renormalized(logmass)
        assert np.max(np.abs(p - renorm)) <= 1e-12

    def test_length_one_space_hand_value(self):
        # uniform reference over the three length-1 sequences, rewards
        # (0, 0, beta ln 3): weights 1 : 1 : 3
        space = oracle.EnumSpace.build(3, 1, "fixed")
        table = oracle.reference_table(space, NGramPolicy.uniform(space.vocab, 2))
        beta = 1.3
        reward = np.array([0.0, 0.0, beta * math.log(3.0)])
        p = oracle.boltzmann_distribution(space, reward, oracle.ref_logmass(space, table), beta)
        assert np.allclose(p, [0.2, 0.2, 0.6], atol=1e-12)

    def test_normalization(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        rng = np.random.default_rng(1)
        for beta in (0.5, 1.0, 1.5):
            p = oracle.boltzmann_distribution(
                space, oracle.random_reward(space, rng), logmass, beta
            )
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12

    def test_large_beta_approaches_reference(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        rng = np.random.default_rng(2)
        reward = oracle.random_reward(space, rng)
        p = oracle.boltzmann_distribution(space, reward, logmass, beta=1e6)
        renorm = renormalized(logmass)
        assert np.max(np.abs(p - renorm)) <= 1e-5

    def test_beta_must_be_positive(self):
        space = eos_space()
        with pytest.raises(ValidationError):
            oracle.boltzmann_distribution(space, np.zeros(len(space.sequences)), ref_mass(space), 0.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        space = eos_space(4, 3)
        table = ref_table(space)
        logmass = oracle.ref_logmass(space, table)
        reward = np.zeros(len(space.sequences))
        rstar = np.zeros(space.child.shape)
        log_policies = oracle.random_log_policies(space, 2, np.random.default_rng(0))
        calls = [
            lambda: oracle.boltzmann_distribution(space, reward, logmass, beta),
            lambda: oracle.kl_objective(space, np.exp(log_policies[0]), reward, logmass, beta),
            lambda: oracle.kl_objective_batch(space, log_policies, reward, logmass, beta),
            lambda: oracle.reparameterize(space, rstar, table, beta),
            lambda: oracle.additive_decompose(space, reward, "soft_value", table, beta),
            lambda: oracle.energy_additivity_residual(space, rstar, table, beta),
            lambda: oracle.shift_invariance_residual(space, rstar, table, beta, np.random.default_rng(0)),
            lambda: oracle.reconstruction_spread(space, reward, table, beta),
        ]
        for call in calls:
            with pytest.raises(ValidationError):
                call()

    def test_wrong_reward_shape_rejected(self):
        space = eos_space(4, 3)
        table, logmass = ref_table(space), ref_mass(space)
        with pytest.raises(ValidationError):
            oracle.boltzmann_distribution(space, np.zeros(3), logmass, 1.0)
        with pytest.raises(ValidationError):
            oracle.reparameterize(space, np.zeros(len(space.sequences)), table, 1.0)

    def test_wrong_reference_shape_rejected(self):
        # a table passed where the log mass belongs, and the other way round
        space = eos_space(4, 3)
        table, logmass = ref_table(space), ref_mass(space)
        reward, rstar = np.zeros(len(space.sequences)), np.zeros(space.child.shape)
        log_policy = np.log(renormalized(logmass))
        calls = [
            lambda: oracle.ref_logmass(space, logmass),
            lambda: oracle.boltzmann_distribution(space, reward, table, 1.0),
            lambda: oracle.kl_objective(space, renormalized(logmass), reward, table, 1.0),
            lambda: oracle.kl_objective_batch(space, log_policy[None, :], reward, table, 1.0),
            lambda: oracle.reparameterize(space, rstar, logmass, 1.0),
            lambda: oracle.additive_decompose(space, reward, "soft_value", logmass, 1.0),
            lambda: oracle.energy_additivity_residual(space, rstar, logmass, 1.0),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="shape"):
                call()


class TestKlObjective:
    def test_reference_policy_gets_expected_reward(self):
        # fixed-length space: the chain-rule masses already sum to one
        space = fixed_space(3, 2)
        logmass = ref_mass(space)
        masses = np.exp(logmass)
        assert abs(float(np.sum(masses)) - 1.0) <= 1e-12
        rng = np.random.default_rng(3)
        reward = oracle.random_reward(space, rng)
        j = oracle.kl_objective(space, masses, reward, logmass, beta=1.0)
        assert j == pytest.approx(float(masses @ reward), abs=1e-12)
        zero = np.zeros(len(space.sequences))
        assert oracle.kl_objective(space, masses, zero, logmass, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_policy_rejected(self):
        space = fixed_space(3, 2)
        bad = np.full(len(space.sequences), 0.2)
        with pytest.raises(ValidationError):
            oracle.kl_objective(space, bad, np.zeros(len(space.sequences)), ref_mass(space), 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_policy_rejected(self, bad):
        # NaN compares False both ways, so it must fail by construction
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        reward = np.zeros(len(space.sequences))
        log_policies = oracle.random_log_policies(space, 3, np.random.default_rng(0))
        policy = np.exp(log_policies[0])
        policy[1] = bad
        with pytest.raises(ValidationError):
            oracle.kl_objective(space, policy, reward, logmass, 1.0)
        # an infinite log-probability is a zero or infinite probability
        log_policies[2, 1] = bad
        with pytest.raises(ValidationError):
            oracle.kl_objective_batch(space, log_policies, reward, logmass, 1.0)
        # an infinite probability from a finite log row: exp overflows
        log_policies[2, 1] = 1000.0
        with pytest.raises(ValidationError):
            oracle.kl_objective_batch(space, log_policies, reward, logmass, 1.0)

    def test_batch_rejects_unnormalized_and_misshaped_rows(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        reward = np.zeros(len(space.sequences))
        log_policies = oracle.random_log_policies(space, 3, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            oracle.kl_objective_batch(space, log_policies + 0.1, reward, logmass, 1.0)
        with pytest.raises(ValidationError):
            oracle.kl_objective_batch(space, log_policies[0], reward, logmass, 1.0)

    def test_optimality_of_boltzmann(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space, seed=4)
        rng = np.random.default_rng(5)
        reward = oracle.random_reward(space, rng)
        beta = 1.0
        best = oracle.kl_objective(
            space, oracle.boltzmann_distribution(space, reward, logmass, beta), reward, logmass, beta
        )
        for policy in np.exp(oracle.random_log_policies(space, 1000, rng)):
            assert best - oracle.kl_objective(space, policy, reward, logmass, beta) >= -1e-12

    def test_batch_objective_matches_scalar(self):
        # the batch sums p . (r + beta logmass) - beta sum p log p, the scalar
        # sum p r - beta sum p (log p - logmass): equal up to rounding
        rng = np.random.default_rng(7)
        for space in (eos_space(4, 3), fixed_space(3, 4)):
            logmass = ref_mass(space, seed=6)
            reward = oracle.random_reward(space, rng)
            log_policies = oracle.random_log_policies(space, 50, rng)
            for beta in (0.5, 1.0, 1.5):
                batch = oracle.kl_objective_batch(space, log_policies, reward, logmass, beta)
                singles = [
                    oracle.kl_objective(space, p, reward, logmass, beta)
                    for p in np.exp(log_policies)
                ]
                assert np.max(np.abs(batch - np.asarray(singles))) <= 1e-12

    @pytest.mark.parametrize("v,L,mode", [(6, 5, "eos"), (3, 5, "fixed"), (4, 4, "eos")])
    def test_blocks_consume_one_draw_stream(self, monkeypatch, v, L, mode):
        # 10,000 is not a multiple of these spaces' block rows
        space = oracle.EnumSpace.build(v, L, mode)
        n = len(space.sequences)
        rows = max(1, 2**18 // (8 * n))
        assert 10_000 % rows != 0
        blocks, rstars = [], []
        real_draw, real_prefix = oracle.random_log_policies, oracle.random_prefix_reward

        def draw(space, k, rng):
            blocks.append(real_draw(space, k, rng))
            return blocks[-1]

        def prefix(space, rng):
            rstars.append(real_prefix(space, rng))
            return rstars[-1]

        monkeypatch.setattr(oracle, "random_log_policies", draw)
        monkeypatch.setattr(oracle, "random_prefix_reward", prefix)
        assert oracle.check_optimality(space, seed=3)["pass"]
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert sum(len(b) for b in blocks) == 10_000
        # replay the check's stream with one large draw
        rng = oracle._rng(3, 2)
        oracle._reference(space, rng)
        oracle.random_reward(space, rng)
        logits = rng.standard_normal((10_000, n))
        assert np.array_equal(rstars[0], real_prefix(space, rng))
        whole = logits - np.max(logits, axis=1, keepdims=True)
        whole -= np.log(np.sum(np.exp(whole), axis=1, keepdims=True))
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_blocked_sweep_stays_in_cache_sized_memory(self):
        # the unblocked sweep held two 1024 x 3125 float64 arrays (51 MB)
        space = fixed_space(5, 5)
        tracemalloc.start()
        try:
            assert oracle.check_optimality(space, seed=0)["pass"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


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
        table = ref_table(space, seed=11)
        rng = np.random.default_rng(11)
        reward = oracle.random_reward(space, rng)
        rstar = oracle.additive_decompose(
            space, reward, scheme="soft_value", ref_table=table, beta=1.0
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
        with pytest.raises(ValidationError, match="needs ref_table and beta"):
            oracle.additive_decompose(space, np.zeros(len(space.sequences)), "soft_value")

    def test_energy_additivity(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=12)
        rng = np.random.default_rng(12)
        for _ in range(20):
            rstar = oracle.random_prefix_reward(space, rng)
            assert oracle.energy_additivity_residual(space, rstar, table, 1.0) <= 1e-12


class TestReparameterize:
    def test_zero_reward_returns_reference(self):
        space = eos_space(3, 3)
        ref = reference(space, seed=13)
        rstar = np.zeros(space.child.shape)
        result = oracle.reparameterize(space, rstar, oracle.reference_table(space, ref), beta=1.0)
        for c, ctx in enumerate(ctx_tuples(space)):
            assert np.max(np.abs(result.policy[c] - ref.conditional_row((), ctx))) <= 1e-12
            assert abs(result.shift[c]) <= 1e-12

    def test_rows_normalize(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=14)
        rng = np.random.default_rng(14)
        result = oracle.reparameterize(
            space, oracle.random_prefix_reward(space, rng), table, beta=0.7
        )
        assert result.policy.shape == (len(space.contexts), space.vocab.size)
        for row in result.policy:
            assert abs(float(np.sum(np.exp(row))) - 1.0) <= 1e-12

    def test_representative_residual_tiny(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            space = eos_space(int(rng.integers(3, 6)), int(rng.integers(1, 5)))
            table = ref_table(space, seed=seed)
            rstar = oracle.random_prefix_reward(space, rng)
            result = oracle.reparameterize(space, rstar, table, beta=(0.5, 1.0, 1.5)[seed % 3])
            assert result.max_residual <= 1e-10

    def test_shift_invariance(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=16)
        rng = np.random.default_rng(16)
        rstar = oracle.random_prefix_reward(space, rng)
        assert oracle.shift_invariance_residual(space, rstar, table, 1.0, rng) <= 1e-12

    def test_reconstruction_spread_small(self):
        for mode in ("eos", "fixed"):
            space = oracle.EnumSpace.build(3, 3, mode=mode)
            table = ref_table(space, seed=17)
            rng = np.random.default_rng(17)
            for _ in range(20):
                reward = oracle.random_reward(space, rng)
                assert oracle.reconstruction_spread(space, reward, table, 1.0) <= 1e-9

    def test_nan_prefix_reward_gives_nan_residual(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=18)
        rstar = oracle.random_prefix_reward(space, np.random.default_rng(18))
        # the last prefix of the last sequence: Python's max(0.0, nan) would
        # have hidden it behind the finite residuals before it
        rstar[space.seq_ctx[-1, -1], space.sequences[-1, -1]] = math.nan
        assert math.isnan(oracle.reparameterize(space, rstar, table, 1.0).max_residual)
        assert math.isnan(oracle.energy_additivity_residual(space, rstar, table, 1.0))
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

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_each_check_builds_its_reference_table_once(self, monkeypatch, v, L, mode):
        real = oracle.reference_table
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, "reference_table", counted)
        space = oracle.EnumSpace.build(v, L, mode)
        counts = {}
        for name, check in oracle.CHECKS.items():
            calls.clear()
            assert check(space, seed=0)["pass"]
            counts[name] = len(calls)
        # decompose splits rewards without any reference
        assert counts == {
            "boltzmann": 1, "optimality": 1, "decompose": 0, "reparam": 1, "theorem1": 1,
        }

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
