"""Unit tests for the brute-force theory oracle."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from preflab import lm, oracle
from preflab.autodiff import logsumexp_values
from preflab.errors import ValidationError
from preflab.lm import NGramPolicy

from helpers import (
    along_sequences, conditional_row, random_prefix_reward, seq_logprob, shift_drift,
    uniform_ngram, vocab_logprobs,
)

REAL_RNG = oracle._rng


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


class RecordingRng:
    """A check's generator that keeps a copy of every standard normal draw
    and, if ``spoil`` names a call, sets one entry of that call's middle row
    to NaN."""

    def __init__(self, seed, salt, spoil=None):
        self.seed, self.salt, self.spoil = seed, salt, spoil
        self.rng = REAL_RNG(seed, salt)
        self.calls = []

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        if self.spoil == len(self.calls):
            out[len(out) // 2].flat[0] = math.nan
        self.calls.append(out.copy())
        return out

    def replay(self, n):
        """The same stream taken as one draw of ``n`` values."""
        return REAL_RNG(self.seed, self.salt).standard_normal(n)


def run_recorded(monkeypatch, check, space, seed, spoil=None):
    rngs = []

    def recorded(seed, salt):
        rngs.append(RecordingRng(seed, salt, spoil))
        return rngs[-1]

    monkeypatch.setattr(oracle, "_rng", recorded)
    certificate = check(space, seed)
    monkeypatch.setattr(oracle, "_rng", REAL_RNG)
    (rng,) = rngs
    return certificate, rng


# The per-draw loops the checks ran before they drew in blocks: the reference
# the blocked checks must reproduce byte for byte.


def per_draw_boltzmann(space, seed, draws=20):
    rng = oracle._rng(seed, 1)
    table = oracle.reference_table(space, oracle._reference(space, rng))
    logmass = oracle.ref_logmass(space, table)
    residuals = []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        p = oracle.boltzmann_distribution(space, oracle.random_reward(space, rng), logmass, beta)
        residuals.append(abs(float(np.sum(p)) - 1.0))
    return oracle._certificate("boltzmann", space, seed, residuals)


def per_draw_optimality(space, seed, policies=64):
    rng = oracle._rng(seed, 2)
    table = oracle.reference_table(space, oracle._reference(space, rng))
    logmass = oracle.ref_logmass(space, table)
    reward = oracle.random_reward(space, rng)
    beta = 1.0
    optimum = oracle.boltzmann_distribution(space, reward, logmass, beta)
    best = float(oracle.kl_objective_batch(space, optimum, reward, logmass, beta))
    residuals = []
    for _ in range(policies):
        (log_policy,) = oracle.random_log_policies(space, 1, rng)
        policy = np.exp(log_policy)
        gap = best - oracle.kl_objective_batch(space, policy, reward, logmass, beta)
        kl = np.sum(policy * (log_policy - np.log(optimum)))
        residuals += [abs(gap - beta * kl) / max(1.0, abs(best)), max(0.0, -gap)]
    # the chain-rule statement takes no draws: the same code on both sides
    rstar = oracle.additive_decompose(space, reward, "soft_value", table, beta)
    policy = oracle.reparameterize(space, rstar, table, beta).policy
    logp = np.sum(along_sequences(space, policy), axis=-1)
    residuals.append(np.max(np.abs(np.exp(logp - logsumexp_values(logp)) - optimum)))
    return oracle._certificate("optimality", space, seed, residuals)


def per_draw_decompose(space, seed, draws=100):
    rng = oracle._rng(seed, 3)
    residuals = []
    for _ in range(draws):
        reward = oracle.random_reward(space, rng)
        rstar = oracle.additive_decompose(space, reward)
        residuals.append(oracle.decomposition_residual(space, reward, rstar))
        totals = np.sum(oracle.uniform_decomposition(space, reward), axis=1)
        residuals.append(np.max(np.abs(totals - reward)))
    return oracle._certificate("decompose", space, seed, residuals)


def per_draw_reparam(space, seed, draws=20):
    rng = oracle._rng(seed, 4)
    table = oracle.reference_table(space, oracle._reference(space, rng))
    residuals, drifts = [], []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        rstar = random_prefix_reward(space, rng)
        result = oracle.reparameterize(space, rstar, table, beta)
        residuals.append(result.max_residual)
        residuals.append(np.max(np.abs(np.exp(result.policy).sum(axis=1) - 1.0)))
        offsets = rng.standard_normal(len(space.contexts))
        drifts.append(shift_drift(space, rstar, table, beta, offsets))
    # the representative identity and the normalization at the check's
    # tolerance, the drift at 1e-12
    residual, drift = float(np.max(residuals)), float(np.max(drifts))
    return oracle._certificate("reparam", space, seed, [residual, drift], drift <= 1e-12)


def per_draw_theorem1(space, seed, draws=20):
    rng = oracle._rng(seed, 5)
    table = oracle.reference_table(space, oracle._reference(space, rng))
    logmass = oracle.ref_logmass(space, table)
    spreads = []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        reward = oracle.random_reward(space, rng)
        spreads.append(oracle.reconstruction_spread(space, reward, table, logmass, beta))
    return oracle._certificate("theorem1", space, seed, spreads)


PER_DRAW = {
    "boltzmann": per_draw_boltzmann,
    "optimality": per_draw_optimality,
    "decompose": per_draw_decompose,
    "reparam": per_draw_reparam,
    "theorem1": per_draw_theorem1,
}


def block_plan(space, check):
    """How a check draws: the number of single draws before its blocks, then
    per blocked stream its draws, the shape of one draw and the float64
    entries of the largest array one draw builds: decompose's uniform split
    is (N, L), and theorem1 builds no array larger than its prefix table
    with the one slot that sums along sequences read past an end."""
    n, width = len(space.sequences), space.child.size + len(space.contexts)
    table = space.child.size + 1
    return {
        "boltzmann": (1, [(20, (n,), n)]),
        "optimality": (2, [(64, (n,), n)]),
        "decompose": (0, [(100, (n,), max(space.sequences.size, table))]),
        "reparam": (1, [(20, (width,), width)]),
        "theorem1": (1, [(20, (n,), table)]),
    }[check]


class TestEnumSpace:
    def test_eos_mode_counts(self):
        space = eos_space(3, 3)
        # interiors over 2 non-EOS ids: 1 + 2 + 4 EOS-terminated sequences
        assert len(space.sequences) == 7
        assert all(y[-1] == space.vocab.EOS for y in seq_tuples(space))
        assert all(space.vocab.EOS not in y[:-1] for y in seq_tuples(space))

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
            interiors = [t for t in range(v) if t != space.vocab.EOS]
            contexts = [c for n in range(L) for c in itertools.product(interiors, repeat=n)]
            assert ctx_tuples(space) == contexts
            assert seq_tuples(space) == [c + (space.vocab.EOS,) for c in contexts]
            space = fixed_space(v, L)
            assert seq_tuples(space) == list(itertools.product(range(v), repeat=L))
            assert ctx_tuples(space) == [
                c for n in range(L) for c in itertools.product(range(v), repeat=n)
            ]

    def test_prefix_closure_contains_empty(self):
        # the empty prefix is context 0, and every sequence starts there
        space = eos_space()
        assert space.ctx_len[0] == 0
        assert np.array_equal(space.flat_at[0], space.sequences[:, 0])

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
        # every nonempty prefix y[:i+1] is the table entry (c, y[i]) at flat
        # index flat_at[i, y], with c the code of y[:i]
        space = eos_space(3, 3)
        contexts = ctx_tuples(space)
        for k, y in enumerate(seq_tuples(space)):
            for i in range(len(y)):
                c, t = divmod(int(space.flat_at[i, k]), space.vocab.size)
                assert contexts[c] == y[:i] and t == y[i]
                if i + 1 < len(y):
                    assert contexts[space.child[c, y[i]]] == y[: i + 1]
                else:
                    assert space.seq_at[c, y[i]] == k

    def test_tables_agree(self):
        # on every sweep space (SWEEP, below)
        for space in SWEEP:
            v, L = space.vocab.size, space.max_len
            n, n_ctx = len(space.sequences), len(space.contexts)
            w = v - (space.mode == "eos")
            assert n_ctx == sum(w**length for length in range(L))
            assert n == (n_ctx if space.mode == "eos" else v**L)
            # every field a platform int, so no build can narrow one silently
            shapes = {
                "sequences": (n, L), "lengths": (n,), "flat_at": (L, n),
                "contexts": (n_ctx, L - 1), "ctx_len": (n_ctx,), "child": (n_ctx, v),
                "seq_at": (n_ctx, v),
            }
            for name, shape in shapes.items():
                field = getattr(space, name)
                assert (field.dtype, field.shape) == (np.dtype(np.intp), shape), name
            # id 0 past every end
            assert not np.any(space.sequences[np.arange(L) >= space.lengths[:, None]])
            assert not np.any(space.contexts[np.arange(L - 1) >= space.ctx_len[:, None]])
            contexts = ctx_tuples(space)
            code = {c: i for i, c in enumerate(contexts)}
            seqs = {y: k for k, y in enumerate(seq_tuples(space))}
            assert np.array_equal(space.ctx_len, [len(c) for c in contexts])
            for c, ctx in enumerate(contexts):
                for t in range(v):
                    assert space.child[c, t] == code.get(ctx + (t,), -1)
                    assert space.seq_at[c, t] == seqs.get(ctx + (t,), -1)
            # position-major; past the end, the slot after the flattened table
            for y, k in seqs.items():
                assert space.lengths[k] == len(y)
                expected = [code[y[:i]] * v + y[i] for i in range(len(y))]
                expected += [space.child.size] * (L - len(y))
                assert space.flat_at[:, k].tolist() == expected

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_reference_table_matches_conditional_row(self, v, L, mode):
        space = oracle.EnumSpace.build(v, L, mode=mode)
        rng = np.random.default_rng(20)
        for order, prompt in ((2, ()), (2, (2,)), (3, (0, 2))):
            ref = NGramPolicy.random(space.vocab, order, rng)
            table = oracle.reference_table(space, ref, prompt)
            for c, ctx in enumerate(ctx_tuples(space)):
                assert np.array_equal(table[c], conditional_row(ref, prompt, ctx))

    def test_reference_table_equals_the_scoring_path(self):
        # the n-gram's scoring path: vocab_logprobs at the row stacked_rows
        # gives the slot after each context
        rng = np.random.default_rng(22)
        for space in SWEEP:
            n_ctx = len(space.contexts)
            padded = np.zeros((n_ctx, space.max_len), dtype=np.intp)
            padded[:, :-1] = space.contexts
            for order, prompt in itertools.product((1, 2, 3), ((), (2,), (0, 2))):
                ref = NGramPolicy.random(space.vocab, order, rng)
                rows, _ = ref.stacked_rows([prompt] * n_ctx, [tuple(r) for r in padded.tolist()])
                rows = rows.reshape(padded.shape)[np.arange(n_ctx), space.ctx_len]
                expected = vocab_logprobs(ref, rows)
                table = oracle.reference_table(space, ref, prompt)
                assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
                assert table.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_reference_prompt_ids_are_checked(self, order):
        space = eos_space(4, 3)
        ref = NGramPolicy.random(space.vocab, order, np.random.default_rng(order))
        for bad in (-1, space.vocab.size):
            for prompt in ((bad,), (0, bad), (bad, 0, 0, 0)):
                with pytest.raises(ValidationError, match=f"token id {bad} out of range"):
                    oracle.reference_table(space, ref, prompt)

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_ref_logmass_matches_seq_logprob(self, v, L, mode):
        space = oracle.EnumSpace.build(v, L, mode=mode)
        ref = reference(space, seed=21)
        logmass = oracle.ref_logmass(space, oracle.reference_table(space, ref))
        # both sum the same token log-probs first position first: bitwise
        expected = [seq_logprob(ref, (), y) for y in seq_tuples(space)]
        assert np.array_equal(logmass, expected)

    def test_reference_must_be_ngram_over_the_vocab(self):
        space = eos_space(4, 3)
        with pytest.raises(ValidationError):
            oracle.reference_table(space, uniform_ngram(lm.Vocab(5), 2))
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
        table = oracle.reference_table(space, uniform_ngram(space.vocab, 2))
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

    @pytest.mark.parametrize(
        "beta,per_draw_ok",
        [
            pytest.param(math.nan, False, id="nan"),
            pytest.param(math.inf, False, id="inf"),
            pytest.param(-math.inf, False, id="-inf"),
            pytest.param(0.0, False, id="zero"),
            # one beta per draw, for two draws
            pytest.param([1.0, math.nan], False, id="draw-nan"),
            pytest.param([math.inf, 1.0], False, id="draw-inf"),
            pytest.param([1.0, -math.inf], False, id="draw--inf"),
            pytest.param([0.5, 0.0], False, id="draw-zero"),
            pytest.param([-1.0, 1.0], False, id="draw-negative"),
            # shapes other than the draws' leading (2,)
            pytest.param(np.ones(3), False, id="shape-3"),
            pytest.param(np.ones((2, 1)), False, id="shape-2x1"),
            pytest.param(np.ones((1, 2)), False, id="shape-1x2"),
            # a good per-draw beta, which only the scalar-beta functions refuse
            pytest.param([0.5, 1.5], True, id="draw-good"),
        ],
    )
    def test_non_finite_beta_rejected(self, beta, per_draw_ok):
        # bad beta, scalar or per draw, is a ValidationError naming beta, never
        # a numpy broadcast error or a TypeError from math.isfinite
        space = eos_space(4, 3)
        table = ref_table(space)
        logmass = oracle.ref_logmass(space, table)
        rewards = np.zeros((2, len(space.sequences)))
        rstars = np.zeros((2,) + space.child.shape)
        policies = np.exp(oracle.random_log_policies(space, 2, np.random.default_rng(0)))
        per_draw = [
            lambda: oracle.boltzmann_distribution(space, rewards, logmass, beta),
            lambda: oracle.reparameterize(space, rstars, table, beta),
            lambda: oracle.additive_decompose(space, rewards, "soft_value", table, beta),
            lambda: oracle.reconstruction_spread(space, rewards, table, logmass, beta),
        ]
        scalar_only = [
            lambda: oracle.kl_objective_batch(space, policies[0], rewards[0], logmass, beta),
            lambda: oracle.kl_objective_batch(space, policies, rewards[0], logmass, beta),
            lambda: oracle.energy_additivity_residual(space, rstars, table, beta),
        ]
        for call in per_draw if per_draw_ok else []:
            call()
        for call in scalar_only + ([] if per_draw_ok else per_draw):
            with pytest.raises(ValidationError, match="beta"):
                call()

    def test_wrong_reward_shape_rejected(self):
        space = eos_space(4, 3)
        table, logmass = ref_table(space), ref_mass(space)
        with pytest.raises(ValidationError):
            oracle.boltzmann_distribution(space, np.zeros(3), logmass, 1.0)
        with pytest.raises(ValidationError):
            oracle.reparameterize(space, np.zeros(len(space.sequences)), table, 1.0)
        # leading draw axes are accepted only before the right trailing shape
        with pytest.raises(ValidationError, match=r"expected \(\.\.\.\) \+ "):
            oracle.boltzmann_distribution(space, np.zeros((2, 3)), logmass, 1.0)
        # the objective takes exactly one reward, for one row or many
        rewards = np.zeros((2, len(space.sequences)))
        policy = renormalized(logmass)
        with pytest.raises(ValidationError, match="reward"):
            oracle.kl_objective_batch(space, policy, rewards, logmass, 1.0)
        with pytest.raises(ValidationError, match="reward"):
            oracle.kl_objective_batch(space, policy[None, :], rewards, logmass, 1.0)

    def test_wrong_reference_shape_rejected(self):
        # a table passed where the log mass belongs, and the other way round
        space = eos_space(4, 3)
        table, logmass = ref_table(space), ref_mass(space)
        reward, rstar = np.zeros(len(space.sequences)), np.zeros(space.child.shape)
        policy = renormalized(logmass)
        calls = [
            lambda: oracle.ref_logmass(space, logmass),
            lambda: oracle.boltzmann_distribution(space, reward, table, 1.0),
            lambda: oracle.kl_objective_batch(space, policy, reward, table, 1.0),
            lambda: oracle.kl_objective_batch(space, policy[None, :], reward, table, 1.0),
            # shapes before the mass: an unnormalized row of the wrong width
            lambda: oracle.kl_objective_batch(space, policy[None, :-1], reward, logmass, 1.0),
            lambda: oracle.reparameterize(space, rstar, logmass, 1.0),
            lambda: oracle.additive_decompose(space, reward, "soft_value", logmass, 1.0),
            lambda: oracle.energy_additivity_residual(space, rstar, logmass, 1.0),
            lambda: oracle.reconstruction_spread(space, reward, logmass, logmass, 1.0),
            lambda: oracle.reconstruction_spread(space, reward, table, table, 1.0),
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
        j = oracle.kl_objective_batch(space, masses, reward, logmass, beta=1.0)
        assert j == pytest.approx(float(masses @ reward), abs=1e-12)
        zero = np.zeros(len(space.sequences))
        j = oracle.kl_objective_batch(space, masses, zero, logmass, 1.0)
        assert j == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_policy_rejected(self):
        space = fixed_space(3, 2)
        bad, zero = np.full(len(space.sequences), 0.2), np.zeros(len(space.sequences))
        with pytest.raises(ValidationError, match="not normalized"):
            oracle.kl_objective_batch(space, bad, zero, ref_mass(space), 1.0)

    def test_point_mass_scores_its_reward_and_reference_mass(self):
        # J of a point mass on y: r(y) - beta * (1 * log 1 - log pi_ref(y)),
        # every other term 0 * log 0 = 0
        space = fixed_space(3, 2)
        logmass = ref_mass(space, seed=8)
        reward = oracle.random_reward(space, np.random.default_rng(8))
        for y in range(len(space.sequences)):
            point = np.zeros(len(space.sequences))
            point[y] = 1.0
            for beta in (0.5, 1.0, 1.5):
                j = oracle.kl_objective_batch(space, point, reward, logmass, beta)
                assert j == reward[y] + beta * logmass[y]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.25])
    def test_non_finite_policy_rejected(self, bad):
        # NaN compares False both ways, so it must fail by construction; a
        # negative entry fails even in a row that sums to one
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        reward = np.zeros(len(space.sequences))
        policies = np.exp(oracle.random_log_policies(space, 3, np.random.default_rng(0)))
        policies[1, 1] += bad
        policies[1, 2] -= bad if math.isfinite(bad) else 0.0
        with pytest.raises(ValidationError, match="not finite|negative"):
            oracle.kl_objective_batch(space, policies[1], reward, logmass, 1.0)
        with pytest.raises(ValidationError, match="not finite|negative"):
            oracle.kl_objective_batch(space, policies, reward, logmass, 1.0)
        # finite entries whose sum overflows to infinity
        policies[2, :2] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="not finite"):
            oracle.kl_objective_batch(space, policies[2:], reward, logmass, 1.0)

    def test_batch_rejects_unnormalized_and_misshaped_rows(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space)
        reward = np.zeros(len(space.sequences))
        policies = np.exp(oracle.random_log_policies(space, 3, np.random.default_rng(1)))
        with pytest.raises(ValidationError, match="not normalized"):
            oracle.kl_objective_batch(space, policies * 1.1, reward, logmass, 1.0)
        with pytest.raises(ValidationError, match="shape"):
            oracle.kl_objective_batch(space, policies[:, 1:], reward, logmass, 1.0)
        with pytest.raises(ValidationError, match="shape"):
            oracle.kl_objective_batch(space, policies[0, 1:], reward, logmass, 1.0)

    def test_optimality_of_boltzmann(self):
        space = eos_space(4, 3)
        logmass = ref_mass(space, seed=4)
        rng = np.random.default_rng(5)
        reward = oracle.random_reward(space, rng)
        beta = 1.0
        best = oracle.kl_objective_batch(
            space, oracle.boltzmann_distribution(space, reward, logmass, beta), reward, logmass, beta
        )
        policies = np.exp(oracle.random_log_policies(space, 1000, rng))
        gaps = best - oracle.kl_objective_batch(space, policies, reward, logmass, beta)
        assert np.min(gaps) >= -1e-12

    def test_batch_objective_matches_scalar(self):
        # one arithmetic in one order: equal bit for bit, row by row, also
        # on rows with zeros and under leading draw axes
        rng = np.random.default_rng(7)
        for space in (eos_space(4, 3), fixed_space(3, 4)):
            logmass = ref_mass(space, seed=6)
            reward = oracle.random_reward(space, rng)
            policies = np.exp(oracle.random_log_policies(space, 50, rng))
            # the first 25 rows keep a growing share of their entries
            for k, p in enumerate(policies[:25]):
                keep = rng.random(len(p)) < (k + 1) / 26
                keep[rng.integers(len(p))] = True
                policies[k] = np.where(keep, p, 0.0) / np.sum(np.where(keep, p, 0.0))
            assert np.sum(policies == 0.0) > len(space.sequences)
            for beta in (0.5, 1.0, 1.5):
                batch = oracle.kl_objective_batch(space, policies, reward, logmass, beta)
                singles = [
                    oracle.kl_objective_batch(space, p, reward, logmass, beta) for p in policies
                ]
                assert np.all(np.isfinite(batch)) and np.array_equal(batch, singles)
                lead = oracle.kl_objective_batch(
                    space, policies.reshape(2, 25, -1), reward, logmass, beta
                )
                assert np.array_equal(lead, batch.reshape(2, 25))

    @pytest.mark.parametrize(
        "v,L,mode", [(6, 5, "eos"), (3, 5, "fixed"), (4, 4, "eos"), (6, 5, "fixed")]
    )
    def test_blocks_consume_one_draw_stream(self, monkeypatch, v, L, mode):
        # every check draws in blocks of at most 256 KiB of float64 in the
        # largest array a draw builds (one draw when that array is larger:
        # decompose on fixed 6,5), and its blocks together are one large
        # draw of its stream
        space = oracle.EnumSpace.build(v, L, mode)
        n = len(space.sequences)
        policy_blocks = []
        real_draw = oracle.random_log_policies

        def draw(space, k, rng):
            policy_blocks.append(real_draw(space, k, rng))
            return policy_blocks[-1]

        monkeypatch.setattr(oracle, "random_log_policies", draw)
        for name, check in oracle.CHECKS.items():
            certificate, rng = run_recorded(monkeypatch, check, space, seed=3)
            assert certificate["pass"]
            singles, streams = block_plan(space, name)
            calls = rng.calls[singles:]
            for draws, shape, floats in streams:
                rows = max(1, 2**18 // (8 * floats))
                counts = []
                while sum(counts) < draws:
                    block = calls.pop(0)
                    assert block.shape == (len(block), *shape)
                    assert len(block) == 1 or len(block) * floats * 8 <= 2**18
                    counts.append(len(block))
                assert counts[:-1] == [rows] * (len(counts) - 1)
                assert sum(counts) == draws
                if name == "optimality" and (v, L, mode) == (6, 5, "eos"):
                    # 41 policies per block: a full block, then a partial one
                    assert counts == [rows, draws - rows]
            assert calls == []
            # replay the check's stream with one large draw
            stream = np.concatenate([c.ravel() for c in rng.calls])
            assert np.array_equal(stream, rng.replay(stream.size))
            if name == "optimality":
                # after the reference's logits and the reward
                skip = rng.calls[0].size + rng.calls[1].size
                logits = stream[skip : skip + 64 * n].reshape(64, n)
                whole = logits - np.max(logits, axis=1, keepdims=True)
                whole -= np.log(np.sum(np.exp(whole), axis=1, keepdims=True))
                assert np.array_equal(np.concatenate(policy_blocks), whole)

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

    def test_every_check_stays_in_cache_sized_memory(self):
        space = fixed_space(6, 5)
        for name, check in oracle.CHECKS.items():
            tracemalloc.start()
            try:
                assert check(space, seed=0)["pass"]
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, name


class TestDecomposition:
    def test_terminal_round_trip_exact_over_1000_tables(self):
        space = eos_space(3, 3)
        rng = np.random.default_rng(8)
        for _ in range(1000):
            reward = 3.0 * oracle.random_reward(space, rng)
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
            assert rstar.flat[space.flat_at[0, k]] == reward[k]

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
                total += rstar.flat[space.flat_at[i, k]]
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
            rstar = random_prefix_reward(space, rng)
            assert oracle.energy_additivity_residual(space, rstar, table, 1.0) <= 1e-12


class TestReparameterize:
    def test_zero_reward_returns_reference(self):
        space = eos_space(3, 3)
        ref = reference(space, seed=13)
        rstar = np.zeros(space.child.shape)
        result = oracle.reparameterize(space, rstar, oracle.reference_table(space, ref), beta=1.0)
        for c, ctx in enumerate(ctx_tuples(space)):
            assert np.max(np.abs(result.policy[c] - conditional_row(ref, (), ctx))) <= 1e-12
            assert abs(result.shift[c]) <= 1e-12

    def test_rows_normalize(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=14)
        rng = np.random.default_rng(14)
        result = oracle.reparameterize(
            space, random_prefix_reward(space, rng), table, beta=0.7
        )
        assert result.policy.shape == (len(space.contexts), space.vocab.size)
        for row in result.policy:
            assert abs(float(np.sum(np.exp(row))) - 1.0) <= 1e-12

    def test_representative_residual_tiny(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            space = eos_space(int(rng.integers(3, 6)), int(rng.integers(1, 5)))
            table = ref_table(space, seed=seed)
            rstar = random_prefix_reward(space, rng)
            result = oracle.reparameterize(space, rstar, table, beta=(0.5, 1.0, 1.5)[seed % 3])
            assert result.max_residual <= 1e-10

    def test_shift_invariance(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=16)
        rng = np.random.default_rng(16)
        rstar = random_prefix_reward(space, rng)
        offsets = rng.standard_normal(len(space.contexts))
        assert shift_drift(space, rstar, table, 1.0, offsets) <= 1e-12

    def test_reconstruction_spread_small(self):
        for mode in ("eos", "fixed"):
            space = oracle.EnumSpace.build(3, 3, mode=mode)
            table = ref_table(space, seed=17)
            logmass = oracle.ref_logmass(space, table)
            rng = np.random.default_rng(17)
            for _ in range(20):
                reward = oracle.random_reward(space, rng)
                assert oracle.reconstruction_spread(space, reward, table, logmass, 1.0) <= 1e-9

    def test_nan_prefix_reward_gives_nan_residual(self):
        space = eos_space(4, 3)
        table = ref_table(space, seed=18)
        rstar = random_prefix_reward(space, np.random.default_rng(18))
        # the last prefix of the last sequence: Python's max(0.0, nan) would
        # have hidden it behind the finite residuals before it
        rstar.flat[space.flat_at[-1, -1]] = math.nan
        assert math.isnan(oracle.reparameterize(space, rstar, table, 1.0).max_residual)
        assert math.isnan(oracle.energy_additivity_residual(space, rstar, table, 1.0))
        reward = np.zeros(len(space.sequences))
        assert math.isnan(oracle.decomposition_residual(space, reward, rstar))


class TestDrawAxes:
    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed")])
    def test_leading_axes_equal_stacked_draws(self, v, L, mode):
        # every function maps over leading draw axes bit for bit, with beta
        # one number or one per draw, and every residual is the largest of
        # its draws' residuals
        space = oracle.EnumSpace.build(v, L, mode)
        table = ref_table(space, seed=22)
        logmass = oracle.ref_logmass(space, table)
        rng = np.random.default_rng(22)
        lead = (2, 3)
        r = rng.standard_normal(lead + space.lengths.shape)
        t = rng.standard_normal(lead + space.child.shape)
        o = rng.standard_normal(lead + space.ctx_len.shape)
        draws = list(np.ndindex(*lead))
        maps = {
            "sums": lambda r, t, o, b: oracle.sequence_sums(space, t),
            "boltzmann": lambda r, t, o, b: oracle.boltzmann_distribution(space, r, logmass, b),
            "terminal": lambda r, t, o, b: oracle.additive_decompose(space, r),
            "soft": lambda r, t, o, b: oracle.additive_decompose(space, r, "soft_value", table, b),
            "uniform": lambda r, t, o, b: oracle.uniform_decomposition(space, r),
            "policy": lambda r, t, o, b: oracle.reparameterize(space, t, table, b).policy,
            "shift": lambda r, t, o, b: oracle.reparameterize(space, t, table, b).shift,
        }
        residuals = {
            "decompose": lambda r, t, o, b: oracle.decomposition_residual(space, r, t),
            # scalar beta only
            "energy": lambda r, t, o, b: oracle.energy_additivity_residual(space, t, table, 0.7),
            "reparam": lambda r, t, o, b: oracle.reparameterize(space, t, table, b).max_residual,
            "shift": lambda r, t, o, b: shift_drift(space, t, table, b, o),
            "spread": lambda r, t, o, b: oracle.reconstruction_spread(space, r, table, logmass, b),
        }
        for beta in (0.7, rng.uniform(0.3, 2.0, lead)):
            b = np.broadcast_to(beta, lead)
            for name, f in maps.items():
                single = np.stack([f(r[i], t[i], o[i], b[i]) for i in draws])
                single = single.reshape(lead + single.shape[1:])
                assert np.array_equal(f(r, t, o, beta), single), name
            for name, f in residuals.items():
                assert f(r, t, o, beta) == max(f(r[i], t[i], o[i], b[i]) for i in draws), name


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

    @pytest.mark.parametrize("v,L,mode", [(4, 3, "eos"), (3, 3, "fixed"), (6, 5, "fixed")])
    def test_each_block_is_scored_in_one_call(self, monkeypatch, v, L, mode):
        # beta is a draw axis, so a block is one call, not one per beta; reparam
        # reuses the block's policy for the shift drift: two reparameterize
        # calls per block, the block and its shifted twin
        space = oracle.EnumSpace.build(v, L, mode)
        calls = []
        for name in ("boltzmann_distribution", "reparameterize", "reconstruction_spread",
                     "kl_objective_batch"):

            def counted(*args, _real=getattr(oracle, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(oracle, name, counted)

        def blocks(check):
            ((draws, _, floats),) = block_plan(space, check)[1]
            return math.ceil(draws / max(1, 2**18 // (8 * floats)))

        expected = {
            "boltzmann": {"boltzmann_distribution": blocks("boltzmann")},
            # one optimum and one chain-rule policy per certificate
            # and J(pi*), a one-row kl_objective_batch call
            "optimality": {"boltzmann_distribution": 1, "reparameterize": 1,
                           "kl_objective_batch": blocks("optimality") + 1},
            "reparam": {"reparameterize": 2 * blocks("reparam")},
            "theorem1": {"reconstruction_spread": blocks("theorem1"),
                         "reparameterize": blocks("theorem1")},
        }
        for name, counts in expected.items():
            calls.clear()
            assert oracle.CHECKS[name](space, seed=0)["pass"]
            assert {fn: calls.count(fn) for fn in set(calls)} == counts, name

    def test_repeatable(self):
        a = oracle.run_checks(3, 3, seed=5, which="all")
        b = oracle.run_checks(3, 3, seed=5, which="all")
        assert a == b

    def test_nan_residual_does_not_certify(self, monkeypatch):
        # a NaN in the middle draw of a check's last block: np.max propagates
        # it where Python's max(0.0, nan) would drop it behind finite residuals
        for v, L, mode in ((3, 2, "eos"), (3, 5, "fixed")):
            space = oracle.EnumSpace.build(v, L, mode)
            for name, check in oracle.CHECKS.items():
                _, rng = run_recorded(monkeypatch, check, space, seed=0)
                last = len(rng.calls) - 1
                assert len(rng.calls[last]) > 1
                if name == "optimality":
                    # optimality's last block is its policies: kl_objective_batch
                    # refuses the NaN row, so no certificate is issued at all
                    with pytest.raises(ValidationError, match="not finite"):
                        run_recorded(monkeypatch, check, space, seed=0, spoil=last)
                    continue
                cert, _ = run_recorded(monkeypatch, check, space, seed=0, spoil=last)
                assert math.isnan(cert["max_residual"]) and cert["pass"] is False, name
            # a NaN in one prefix reward of the soft-value split reaches only
            # optimality's chain-rule statement
            real = oracle.additive_decompose

            def spoiled(*args, **kwargs):
                rstar = real(*args, **kwargs)
                rstar[-1, 0] = math.nan
                return rstar

            monkeypatch.setattr(oracle, "additive_decompose", spoiled)
            cert = oracle.check_optimality(space, seed=0)
            monkeypatch.setattr(oracle, "additive_decompose", real)
            assert math.isnan(cert["max_residual"]) and cert["pass"] is False

    @pytest.mark.parametrize(
        "v,L,mode",
        [(3, 1, "eos"), (4, 3, "eos"), (3, 4, "fixed"),
         (5, 4, "fixed"), (6, 5, "eos"), (6, 5, "fixed")],
    )
    def test_blocked_checks_equal_per_draw_loops(self, v, L, mode):
        # optimality's reference scores one policy at a time, with one-row
        # kl_objective_batch calls
        space = oracle.EnumSpace.build(v, L, mode)
        for seed in range(4):
            for name, check in oracle.CHECKS.items():
                blocked = json.dumps(check(space, seed), sort_keys=True)
                assert blocked == json.dumps(PER_DRAW[name](space, seed), sort_keys=True)


SWEEP = [
    oracle.EnumSpace.build(v, L, mode)
    for mode in oracle.MODES
    for v in range(3, oracle.MAX_VOCAB + 1)
    for L in range(1, oracle.MAX_LEN + 1)
]


def optimality_failures(policies=64):
    """(space, seed) cases of the sweep at seeds 0-3 whose optimality
    certificate fails, and those whose space holds two sequences or more."""
    failed, several = set(), set()
    for space, seed in itertools.product(SWEEP, range(4)):
        case = (space.vocab.size, space.max_len, space.mode, seed)
        if not oracle.check_optimality(space, seed, policies)["pass"]:
            failed.add(case)
        if len(space.sequences) > 1:
            several.add(case)
    return failed, several


def boltzmann_off_in_beta(real=oracle.boltzmann_distribution):
    return lambda space, reward, ref_mass, beta: real(space, reward, ref_mass, 1.01 * beta)


def noise_for_soft_value(real=oracle.additive_decompose):
    rng = np.random.default_rng(0)

    def decompose(space, reward, scheme="terminal", ref_table=None, beta=None):
        if scheme != "soft_value":
            return real(space, reward, scheme, ref_table, beta)
        return rng.normal(0.0, 50.0, np.shape(reward)[:-1] + space.child.shape)

    return decompose


def logsumexp_plus_tenth(real=oracle.vocab_logsumexp):
    return lambda z: real(z) + 0.1


def policy_plus_tenth(real=oracle.reparameterize):
    def reparameterize(*args):
        result = real(*args)
        result.policy = result.policy + 0.1
        return result

    return reparameterize


class TestPlantedBugs:
    @pytest.mark.parametrize(
        "target,bug",
        [
            pytest.param("boltzmann_distribution", boltzmann_off_in_beta, id="beta-times-1.01"),
            pytest.param("additive_decompose", noise_for_soft_value, id="noise-for-soft-value"),
        ],
    )
    def test_optimality_fails_on_every_space_with_two_sequences(self, monkeypatch, target, bug):
        # the 4 eos L=1 spaces hold one sequence (EOS alone), so pi* is [1.0]
        # and no bug can move it there; the other 36 spaces fail at every seed
        monkeypatch.setattr(oracle, target, bug())
        failed, several = optimality_failures()
        assert len(several) == 36 * 4
        assert failed == several

    def test_gibbs_identity_alone_sees_a_wrong_objective(self, monkeypatch):
        # J(pi*), the one-row call, off by its beta: pi* and the chain rule are
        # right, so only the identity can fail, and one policy is enough on
        # every space
        real = oracle.kl_objective_batch

        def objective(space, p, r, m, beta):
            return real(space, p, r, m, 1.001 * beta if np.ndim(p) == 1 else beta)

        monkeypatch.setattr(oracle, "kl_objective_batch", objective)
        failed, _ = optimality_failures(policies=1)
        assert len(failed) == len(SWEEP) * 4

    @pytest.mark.parametrize(
        "target,bug",
        [
            pytest.param("vocab_logsumexp", logsumexp_plus_tenth, id="logsumexp-plus-0.1"),
            pytest.param("reparameterize", policy_plus_tenth, id="policy-plus-0.1"),
        ],
    )
    def test_reparam_sees_an_unnormalized_policy_on_every_space(self, monkeypatch, target, bug):
        # both keep the representative identity and the shift drift at
        # rounding error, so only the normalization residual can fail them
        monkeypatch.setattr(oracle, target, bug())
        certificates = [oracle.check_reparam(space, seed) for space in SWEEP for seed in (0, 1)]
        assert not any(c["pass"] for c in certificates)

    def test_boltzmann_sees_an_unnormalized_distribution_on_every_space(self, monkeypatch):
        # a normalizer 0.1 too large: every Boltzmann row sums to exp(-0.1)
        real = oracle.logsumexp_values
        monkeypatch.setattr(oracle, "logsumexp_values", lambda z, axis=-1: real(z, axis) + 0.1)
        certificates = [oracle.check_boltzmann(space, seed) for space in SWEEP for seed in (0, 1)]
        assert not any(c["pass"] for c in certificates)


class TestShortAxisReductions:
    """The column-by-column reductions give the bits of the numpy reductions
    they replace on every sweep space: with and without leading draw axes,
    one column at L = 1, and eos sequences that end before L."""

    LEADS = [(), (3,), (2, 3)]

    @pytest.mark.parametrize("space", SWEEP, ids=lambda s: f"{s.mode}-{s.vocab.size},{s.max_len}")
    def test_sequence_sums_equal_summed_gathers(self, space):
        rng = np.random.default_rng(space.child.size)
        for lead in self.LEADS:
            t = 10.0 ** rng.integers(-3, 4) * rng.standard_normal(lead + space.child.shape)
            gathered = along_sequences(space, t)
            sums = oracle.sequence_sums(space, t)
            assert sums.shape == lead + space.lengths.shape
            assert sums.tobytes() == np.sum(gathered, axis=-1).tobytes()
            r = rng.standard_normal(lead + space.lengths.shape)
            uniform = oracle.uniform_decomposition(space, r)
            assert oracle._sum_columns(uniform).tobytes() == np.sum(uniform, axis=-1).tobytes()

    @pytest.mark.parametrize("space", SWEEP, ids=lambda s: f"{s.mode}-{s.vocab.size},{s.max_len}")
    def test_vocab_logsumexp_equals_logsumexp_values(self, space):
        # scored as reparameterize scores: reference plus reward over a beta
        # that is one number or one per draw
        rng = np.random.default_rng(space.child.size)
        table = ref_table(space, seed=space.child.size)
        for lead in self.LEADS:
            for beta in (0.7, rng.uniform(0.01, 2.0, lead)):
                rstar = 3.0 * rng.standard_normal(lead + space.child.shape)
                z = table + rstar / np.asarray(beta)[..., None, None]
                lse = oracle.vocab_logsumexp(z)
                assert lse.shape == lead + space.ctx_len.shape
                assert lse.tobytes() == logsumexp_values(z).tobytes()

    def test_special_values_follow_the_numpy_reductions(self):
        # NaN and infinities propagate as the row reductions propagate them,
        # and an all-negative-zero sum is +0.0, as numpy's is
        z = np.array([[0.0, -np.inf, 1.0], [np.nan, 0.0, 2.0], [-np.inf] * 3, [np.inf, 0.0, 1.0]])
        with np.errstate(invalid="ignore"):
            assert oracle.vocab_logsumexp(z).tobytes() == logsumexp_values(z).tobytes()
        x = np.array([[-0.0, -0.0], [np.inf, -np.inf], [np.nan, 1.0]])
        with np.errstate(invalid="ignore"):
            assert oracle._sum_columns(x).tobytes() == np.sum(x, axis=-1).tobytes()
