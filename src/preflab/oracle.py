"""Brute-force verification of the theory on enumerable token spaces.

Everything here works by exhaustive enumeration of a small output space:
the Boltzmann form of the KL-constrained optimum, additive decomposition
of response-level rewards into prefix-wise ones, and the token-level
reparameterization that turns any prefix-wise reward into an
autoregressive policy whose log-ratio against the reference reproduces
the reward (up to a per-context shift). The optimum is certified by exact
identities that a wrong optimum breaks, not by out-scoring random
policies: the Gibbs identity J(pi*) - J(pi) = beta * KL(pi || pi*) on a
few random policies, and the chain rule of pi*'s token-level
reparameterization.

A space is a set of index arrays (see ``EnumSpace``). A response-level
reward is a vector over the sequences; a prefix-wise reward, a token-level
policy and the reference's conditionals are (contexts, vocab) tables whose
entry [c, t] belongs to the prefix "context c, then token t". Every check
is a sum of such a table along each sequence, a log-softmax over each
context's vocab row, or a soft-value recursion of ``MAX_LEN`` vectorized
levels. The short axes, at most ``MAX_LEN`` positions and ``MAX_VOCAB``
tokens, are reduced column by column: a sum along sequences adds one gather
per position, and a vocab log-sum-exp takes its max and its sum one token
column at a time. numpy reduces a short trailing axis one output row at a
time: summing 7,776 rows of 5 takes 164 us, against 30 us by columns, and
a log-sum-exp over 4 x 1,555 rows of 6 takes 1.0 ms, against 0.39 ms
(2 cores, numpy 2.4, BLAS 1 thread). For an axis shorter than 8 numpy adds
in order from 0.0, so both give the same bits. Rewards and prefix tables may
carry leading draw axes, over which every residual reduces too. beta is
one number or one per draw, shaped like those leading axes; only the
objective J (``kl_objective_batch``) and ``energy_additivity_residual``
take one number alone.

The reference enters every check as data: ``reference_table`` is the one
function that reads an ``NGramPolicy`` (and a prompt), and each
certificate calls it once. It reads the n-gram's logits directly: the
table row of each context follows from its parent's by the n-gram's state
recursion ``NGramPolicy.step``, and the values are the log-softmax that
the n-gram's forward applies, bit for bit. Prefix-level functions take
that table; response-level ones take its chain-rule sum, ``ref_logmass``.
Every check takes its random draws in blocks of about 256 KiB from one
stream and scores each block in one call, the block's betas a draw axis
(see ``_betas``), so every pass after the Gaussian draw runs in cache.

Spaces are hard-capped at vocab size 6 and length 5. Variable-length
spaces are realized as EOS-terminated sequences, which makes the output
space prefix-free (no response is a proper prefix of another); the
canonical terminal-mass decomposition is only well-defined on prefix-free
spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .autodiff import log_softmax_values, logsumexp_values
from .errors import ValidationError
from .lm import NGramPolicy, TokenSeq, Vocab, id_stream
from .losses import check_beta
from .seeds import seed_sequence

MAX_VOCAB = 6
MAX_LEN = 5
# "eos": variable length, EOS-terminated; "fixed": every sequence max_len long
MODES = ("eos", "fixed")

TOLERANCES = {
    "boltzmann": 1e-12,
    "optimality": 1e-12,
    "decompose": 1e-12,
    "reparam": 1e-10,
    "theorem1": 1e-9,
}


@dataclass(frozen=True, eq=False)
class EnumSpace:
    """A fully enumerated output space plus the contexts that reach it.

    Sequences and contexts are both ordered by length, then
    lexicographically. A context is addressed by its code, its row in the
    per-context arrays; id -1 means "none" throughout. Over an alphabet of
    w tokens (eos mode leaves EOS out of the contexts), those codes number a
    complete w-ary tree breadth first, so ``build`` writes every array in
    closed form, one vectorized step per length.

    sequences  (N, L) token ids, 0 past each sequence's end
    lengths    (N,) sequence lengths
    flat_at    (L, N) position-major index of each position's prefix, c * v + t
               for the context c before it and its token t, in a (contexts,
               vocab) table flattened with one 0 slot appended (see
               ``_padded``); past each sequence's end, that slot
    contexts   (n_ctx, L - 1) token ids, 0 past each context's end
    ctx_len    (n_ctx,) context lengths
    child      (n_ctx, v) code of context c extended by token t, or -1
    seq_at     (n_ctx, v) id of the sequence context c + token t, or -1
    """

    vocab: Vocab
    max_len: int
    mode: str  # one of MODES
    sequences: np.ndarray
    lengths: np.ndarray
    flat_at: np.ndarray
    contexts: np.ndarray
    ctx_len: np.ndarray
    child: np.ndarray
    seq_at: np.ndarray

    @classmethod
    def build(cls, vocab_size: int, max_len: int, mode: str = "eos") -> "EnumSpace":
        if not (3 <= vocab_size <= MAX_VOCAB):
            raise ValidationError(
                f"vocab size must be in [3, {MAX_VOCAB}], got {vocab_size}"
            )
        if not (1 <= max_len <= MAX_LEN):
            raise ValidationError(f"max length must be in [1, {MAX_LEN}], got {max_len}")
        if mode not in MODES:
            raise ValidationError(f"unknown space mode {mode!r}")
        vocab = Vocab(vocab_size)
        alphabet = np.arange(vocab_size)
        if mode == "eos":
            alphabet = alphabet[alphabet != vocab.EOS]
        w = alphabet.size
        # w^l contexts of each length l, from code offsets[l] on
        sizes = [w**l for l in range(max_len)]
        offsets = [(w**l - 1) // (w - 1) for l in range(max_len + 1)]
        ctx_len = np.repeat(np.arange(max_len), sizes)
        n_ctx, inner = offsets[-1], offsets[-2]
        # the contexts of length l + 1 are those of length l, each followed
        # by every token of the alphabet: context k of a length has the
        # base-w digits of k as its tokens
        contexts = np.zeros((n_ctx, max_len - 1), dtype=int)
        for l in range(max_len - 1):
            level = contexts[offsets[l + 1] : offsets[l + 2]].reshape(sizes[l], w, -1)
            level[:, :, :l] = contexts[offsets[l] : offsets[l + 1], None, :l]
            level[:, :, l] = alphabet
        # codes follow a complete w-ary tree in breadth-first order, so the
        # children of context c are c * w + 1 ... c * w + w
        child = np.full((n_ctx, vocab_size), -1)
        child[:inner, alphabet] = np.arange(1, inner * w + 1).reshape(inner, w)
        seq_at = np.full((n_ctx, vocab_size), -1)
        if mode == "eos":
            # one sequence per context: its tokens, then EOS
            sequences = np.zeros((n_ctx, max_len), dtype=int)
            sequences[:, :-1] = contexts
            sequences[np.arange(n_ctx), ctx_len] = vocab.EOS
            lengths = ctx_len + 1
            seq_at[:, vocab.EOS] = np.arange(n_ctx)
        else:
            # every context of length max_len - 1, followed by every token
            sequences = np.empty((sizes[-1], w, max_len), dtype=int)
            sequences[:, :, :-1] = contexts[inner:, None, :]
            sequences[:, :, -1] = alphabet
            sequences = sequences.reshape(-1, max_len)
            lengths = np.full(len(sequences), max_len)
            seq_at[inner:] = np.arange(len(sequences)).reshape(-1, w)
        # one walk down the tree: position i of a sequence is its prefix code
        # times v plus its token; eos sequences alive at position i are the
        # suffix from offsets[i] on, as they are ordered by length
        flat_at = np.full((max_len, len(sequences)), child.size)
        at = np.zeros(len(sequences), dtype=int)
        for i in range(max_len):
            live = slice(offsets[i] if mode == "eos" else 0, None)
            tokens = sequences[live, i]
            flat_at[i, live] = at[live] * vocab_size + tokens
            at[live] = child[at[live], tokens]
        return cls(
            vocab, max_len, mode, sequences, lengths, flat_at, contexts, ctx_len, child, seq_at
        )


def _shaped(what: str, x, shape: tuple, lead: bool = False) -> np.ndarray:
    """``x`` as float64, checked to have ``shape``, after any leading draw
    axes if ``lead``: a per-sequence vector has the shape of
    ``space.lengths``, a (contexts, vocab) table that of ``space.child``."""
    x = np.asarray(x, dtype=np.float64)
    if (x.shape[max(0, x.ndim - len(shape)):] if lead else x.shape) != shape:
        raise ValidationError(f"{what} has shape {x.shape}, expected {'(...) + ' * lead}{shape}")
    return x


def _beta(beta, lead: tuple = ()) -> np.ndarray:
    """beta as an array that broadcasts over draws with leading shape
    ``lead``: one number, or one per draw shaped ``lead`` (no draws: one
    number only). Elementwise it enters as ``beta[..., None]`` (per sequence
    or context) or ``beta[..., None, None]`` (per table entry)."""
    b = np.asarray(beta, dtype=np.float64)
    if not b.ndim:
        check_beta(beta)
        return b
    if b.shape != lead:
        raise ValidationError(f"beta has shape {b.shape}, expected ()" + f" or {lead}" * bool(lead))
    for draw in b.flat:
        check_beta(draw)
    return b


def _padded(table: np.ndarray) -> np.ndarray:
    """A (..., contexts, vocab) table flattened to (..., contexts * vocab + 1),
    its last slot 0: the entry ``EnumSpace.flat_at`` reads past an end."""
    lead = table.shape[:-2]
    return np.concatenate((table.reshape(*lead, -1), np.zeros((*lead, 1))), axis=-1)


def _sum_columns(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1) for a last axis shorter than 8, bit for bit:
    numpy adds such an axis in order from 0.0, as this loop does."""
    total = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        total += x[..., j]
    return total


def sequence_sums(space: EnumSpace, table: np.ndarray) -> np.ndarray:
    """The (..., N) sums of a (..., contexts, vocab) table along every
    sequence: one gather per position added in position order, from 0.0,
    with no (..., N, L) array built. That is np.sum over the sequences'
    (..., N, L) gathered entries, 0 past each end, bit for bit."""
    flat = _padded(table)
    total = np.zeros((*flat.shape[:-1], len(space.sequences)))
    for at in space.flat_at:
        total += np.take(flat, at, axis=-1)
    return total


def vocab_logsumexp(z: np.ndarray) -> np.ndarray:
    """autodiff.logsumexp_values(z) over a last axis of at most MAX_VOCAB
    entries, bit for bit, with its max and its sum taken column by column."""
    m = z[..., 0]
    for j in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., j])
    return m + np.log(_sum_columns(np.exp(z - m[..., None])))


def reference_table(space: EnumSpace, ref: NGramPolicy, prompt: TokenSeq = ()) -> np.ndarray:
    """log pi_ref(t | prompt + context) for every context and token: the
    n-gram's log-softmax table at the row of the slot after each context.

    The empty context's row folds ``prompt``'s ids, checked by
    ``lm.id_stream``, through ``ref.step`` from row 0 (the all-BOS window);
    each context's row follows from its parent's by ``ref.step`` down
    ``space.child``, one vectorized step per context length. The table is
    ``autodiff.log_softmax_values`` of the logits, the function the n-gram's
    ``rows_forward`` applies, so it equals ``lm``'s scoring path bit for bit.

    The only function here that reads a policy; everything downstream takes
    this table, or its ``ref_logmass``, as data."""
    if not isinstance(ref, NGramPolicy) or ref.vocab != space.vocab:
        raise ValidationError("the oracle's reference must be an n-gram over the space's vocab")
    # one slot past the contexts takes the writes of the -1 children
    rows = np.empty(len(space.contexts) + 1, dtype=np.intp)
    rows[0] = reduce(ref.step, id_stream(ref.vocab, [prompt]).tolist(), 0)
    # contexts are ordered by length, so each length is one run of codes
    lo, hi = 0, 1
    for _ in range(space.max_len - 1):
        kids = space.child[lo:hi]
        rows[kids] = ref.step(rows[lo:hi, None], np.arange(space.vocab.size))
        lo, hi = hi, hi + np.count_nonzero(kids >= 0)
    return log_softmax_values(ref.params["logits"], axis=1)[rows[:-1]]


def ref_logmass(space: EnumSpace, ref_table) -> np.ndarray:
    """Chain-rule log mass of every enumerated sequence under the reference
    whose ``reference_table`` is ``ref_table``."""
    return sequence_sums(space, _shaped("reference table", ref_table, space.child.shape))


def random_reward(space: EnumSpace, rng, lead: tuple = ()) -> np.ndarray:
    return rng.standard_normal((*lead, len(space.sequences)))


# ---------------------------------------------------------------------------
# Boltzmann distribution and the KL-constrained objective
# ---------------------------------------------------------------------------


def boltzmann_distribution(space: EnumSpace, reward, ref_mass, beta) -> np.ndarray:
    """Distribution proportional to pi_ref(y) * exp(r(y) / beta) over the
    space, one per reward row, with ``ref_mass`` = ref_logmass(space, ref_table).

    This is the maximizer of kl_objective_batch; normalization is exact over the
    enumerated sequences.
    """
    reward = _shaped("reward", reward, space.lengths.shape, lead=True)
    beta = _beta(beta, reward.shape[:-1])
    logw = _shaped("reference log mass", ref_mass, space.lengths.shape) + reward / beta[..., None]
    return np.exp(logw - logsumexp_values(logw)[..., None])


def kl_objective_batch(space: EnumSpace, policies, reward, ref_mass, beta: float) -> np.ndarray:
    """J(pi) = E_pi[r] - beta * KL(pi || reference), exactly, of every
    (..., N) probability row ``policies``, with ``ref_mass`` =
    ref_logmass(space, ref_table); 0 log 0 counts as 0.

    Shapes are checked first; then every row must be non-negative and sum
    to 1 within 1e-9, so negative, NaN and infinite entries fail.
    """
    _beta(beta)  # one number only
    policies = _shaped("policies", policies, space.lengths.shape, lead=True)
    reward = _shaped("reward", reward, space.lengths.shape)
    ref_mass = _shaped("reference log mass", ref_mass, space.lengths.shape)
    # min/max propagate NaN, and NaN fails both comparisons
    if not np.max(np.abs(np.sum(policies, axis=-1) - 1.0), initial=0.0) <= 1e-9:
        raise ValidationError("a policy row is not finite or not normalized within 1e-9")
    if not np.min(policies, initial=0.0) >= 0:
        raise ValidationError("a policy row has negative probabilities")
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 * log 0, replaced by 0
        terms = policies * (np.log(policies) - ref_mass)
    kl = np.sum(np.where(policies > 0, terms, 0.0), axis=-1)
    return np.sum(policies * reward, axis=-1) - beta * kl


def random_log_policies(space: EnumSpace, n: int, rng) -> np.ndarray:
    """Full-support random distributions as log-probability rows: the
    log-softmax of Gaussian logits, one row per draw.

    Each call consumes exactly the ``rng`` stream of one
    ``standard_normal((n, N))`` call, so draws taken in blocks equal one
    large draw row for row.
    """
    return log_softmax_values(rng.standard_normal((n, len(space.sequences))), axis=1)


# ---------------------------------------------------------------------------
# additive decomposition
# ---------------------------------------------------------------------------


def additive_decompose(
    space: EnumSpace,
    reward,
    scheme: str = "terminal",
    ref_table=None,
    beta=None,
) -> np.ndarray:
    """Split a response-level reward into per-prefix contributions, a
    (contexts, vocab) table.

    schemes:
      terminal    - all mass on the final prefix: r*(y_<=i) = 0 for interior
                    prefixes and r(y) at the full response (canonical; the
                    round trip is exact).
      soft_value  - terminal mass re-shifted by a backward soft-value
                    recursion against (ref_table, beta). Each prefix gains
                    V(prefix) - V(parent), which telescopes along any
                    response, so the one-step reparameterization of this
                    decomposition has an identically-zero per-context shift
                    and reproduces r up to the single constant V(empty).
    """
    reward = _shaped("reward", reward, space.lengths.shape, lead=True)
    terminal = np.where(space.seq_at >= 0, reward[..., space.seq_at], 0.0)
    if scheme == "terminal":
        return terminal
    if scheme != "soft_value":
        raise ValidationError(f"unknown decomposition scheme {scheme!r}")
    if ref_table is None or beta is None:
        raise ValidationError("soft_value decomposition needs ref_table and beta")
    beta = _beta(beta, reward.shape[:-1])[..., None]  # per context

    base = _shaped("reference table", ref_table, space.child.shape)
    inner = space.child >= 0
    value = np.zeros(reward.shape[:-1] + space.ctx_len.shape)
    child_value = np.zeros_like(terminal)
    for level in range(space.max_len - 1, -1, -1):
        block = slice(*np.searchsorted(space.ctx_len, [level, level + 1]))  # ordered by length
        child_value[..., block, :] = np.where(inner[block], value[..., space.child[block]], 0.0)
        rewards = terminal[..., block, :] + child_value[..., block, :]
        value[..., block] = beta * vocab_logsumexp(base[block] + rewards / beta[..., None])
    return terminal + child_value - value[..., None]


def uniform_decomposition(space: EnumSpace, reward) -> np.ndarray:
    """Per-response even split: each of the T' prefixes of y gets r(y)/T'.

    Returned per (sequence, position), 0 past the end, rather than as a
    prefix table, because distinct responses sharing a prefix would assign
    it different values.
    """
    reward = _shaped("reward", reward, space.lengths.shape, lead=True)
    share = reward / space.lengths
    return np.where(space.flat_at.T < space.child.size, share[..., None], 0.0)


def decomposition_residual(space: EnumSpace, reward, rstar) -> float:
    """Max |sum of prefix contributions - r(y)| over the space."""
    totals = sequence_sums(space, _shaped("prefix reward", rstar, space.child.shape, lead=True))
    return float(np.max(np.abs(totals - _shaped("reward", reward, space.lengths.shape, lead=True))))


def energy_additivity_residual(space: EnumSpace, rstar, ref_table, beta: float) -> float:
    """Summed prefix posterior energies vs. the response-level posterior
    energy of the reward the decomposition induces. The two regroup one
    sum, so this reads rounding error for any input; no certificate gates
    it."""
    _beta(beta)  # one number only
    r = _shaped("prefix reward", rstar, space.child.shape, lead=True)
    logps = _shaped("reference table", ref_table, space.child.shape)
    prefix_total = sequence_sums(space, -r / beta - logps)
    whole = -sequence_sums(space, r) / beta - sequence_sums(space, logps)
    return float(np.max(np.abs(prefix_total - whole)))


# ---------------------------------------------------------------------------
# prefix-wise reparameterization
# ---------------------------------------------------------------------------


@dataclass
class ReparamResult:
    """Token-level policy induced by a prefix-wise reward.

    policy holds one normalized log-probability row over the vocabulary per
    context (and draw); shift holds the per-context normalizer beta * log Z
    whose subtraction from the reward makes it exactly beta * log(pi / pi_ref).
    """

    policy: np.ndarray
    shift: np.ndarray
    max_residual: float


def reparameterize(space: EnumSpace, rstar, ref_table, beta) -> ReparamResult:
    """Per-context Boltzmann policy pi(t|ctx) ~ pi_ref(t|ctx) exp(r*(ctx+t)/beta).

    The residual reports how far r* - shift lands from beta * log(pi/pi_ref)
    across every (context, token); it should sit at float rounding error.
    """
    rstar = _shaped("prefix reward", rstar, space.child.shape, lead=True)
    beta = _beta(beta, rstar.shape[:-2])[..., None, None]
    base = _shaped("reference table", ref_table, space.child.shape)
    # in place where the values stay the same, so that fewer block-sized
    # temporaries are alive at once
    policy = base + rstar / beta
    lse = vocab_logsumexp(policy)[..., None]
    policy -= lse
    shift = beta * lse
    dev = beta * (policy - base)
    np.subtract(rstar - shift, dev, out=dev)  # (rstar - shift) - beta * (policy - base)
    residual = np.max(np.abs(dev, out=dev))
    return ReparamResult(policy=policy, shift=shift[..., 0], max_residual=float(residual))


def reconstruction_spread(space: EnumSpace, reward, ref_table, ref_mass, beta) -> float:
    """Full-pipeline check: decompose r, reparameterize, and measure how far
    beta * log(pi(y)/pi_ref(y)) - r(y) is from a single response-independent
    constant (max minus min of the deviation across the space, per draw),
    with ``ref_mass`` = ref_logmass(space, ref_table)."""
    reward = _shaped("reward", reward, space.lengths.shape, lead=True)
    beta = _beta(beta, reward.shape[:-1])
    rstar = additive_decompose(space, reward, "soft_value", ref_table, beta)
    rep = reparameterize(space, rstar, ref_table, beta)
    logp = sequence_sums(space, rep.policy)
    ref_mass = _shaped("reference log mass", ref_mass, space.lengths.shape)
    devs = beta[..., None] * (logp - ref_mass) - reward
    return float(np.max(np.max(devs, axis=-1) - np.min(devs, axis=-1)))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, salt))


def _reference(space: EnumSpace, rng) -> NGramPolicy:
    return NGramPolicy.random(space.vocab, order=2, rng=rng)


def _draw_floats(space: EnumSpace, per_position: bool = False) -> int:
    """Float64 entries of the largest array one reward draw builds: its
    ``_padded`` prefix table, or also, ``per_position``, its (N, L) array of
    per-position values."""
    table = space.child.size + 1
    return max(space.sequences.size, table) if per_position else table


def _blocks(draws: int, floats: int) -> list:
    """(first draw, count) per block of about 256 KiB of ``floats``-entry draws."""
    rows = max(1, 2**18 // (8 * floats))
    return [(start, min(rows, draws - start)) for start in range(0, draws, rows)]


def _betas(start: int, count: int) -> np.ndarray:
    """The betas of draws start .. start + count - 1: draw i uses
    (0.5, 1.0, 1.5)[i % 3]."""
    return np.take((0.5, 1.0, 1.5), np.arange(start, start + count) % 3)


def _certificate(
    check: str, space: EnumSpace, seed: int, residuals: list, passed: bool = True
) -> dict:
    """One certificate of the worst of ``residuals``: it passes when
    ``passed`` and the worst is within the check's tolerance, so a NaN,
    which np.max propagates, or an infinite residual never passes."""
    residual = float(np.max(residuals))
    return {
        "check": check,
        "vocab_size": space.vocab.size,
        "max_len": space.max_len,
        "mode": space.mode,
        "seed": seed,
        "max_residual": residual,
        "tol": TOLERANCES[check],
        "pass": bool(passed and residual <= TOLERANCES[check]),
    }


def check_boltzmann(space: EnumSpace, seed: int) -> dict:
    """Normalization of the Boltzmann distribution."""
    rng = _rng(seed, 1)
    logmass = ref_logmass(space, reference_table(space, _reference(space, rng)))
    residuals = []
    for start, count in _blocks(20, len(space.sequences)):
        rewards = random_reward(space, rng, lead=(count,))
        p = boltzmann_distribution(space, rewards, logmass, _betas(start, count))
        residuals.append(np.max(np.abs(np.sum(p, axis=-1) - 1.0)))
    return _certificate("boltzmann", space, seed, residuals)


def check_optimality(space: EnumSpace, seed: int, policies: int = 64) -> dict:
    """The Boltzmann distribution pi* is the maximizer of the KL-constrained
    objective J, shown by three statements on one reward:

    - the Gibbs identity J(pi*) - J(pi) = beta * KL(pi || pi*) for every
      random full-support policy pi, relative to max(1, |J(pi*)|);
    - the gap J(pi*) - J(pi) is never negative;
    - the token-level policy that reparameterizes the reward's soft-value
      decomposition, multiplied along each sequence and renormalized on
      the space, is pi* (the sequence-level optimum is autoregressive).

    The identity holds to rounding for the true pi* and fails for one that
    is off in beta or reward, so one policy already sees such an error."""
    rng = _rng(seed, 2)
    table = reference_table(space, _reference(space, rng))
    logmass = ref_logmass(space, table)
    reward = random_reward(space, rng)
    beta = 1.0
    optimum = boltzmann_distribution(space, reward, logmass, beta)
    best = float(kl_objective_batch(space, optimum, reward, logmass, beta))
    log_optimum = np.log(optimum)
    residuals = []
    for _, count in _blocks(policies, len(space.sequences)):
        block = random_log_policies(space, count, rng)
        probs = np.exp(block)
        gaps = best - kl_objective_batch(space, probs, reward, logmass, beta)
        kl = np.sum(probs * (block - log_optimum), axis=1)
        residuals.append(np.max(np.abs(gaps - beta * kl)) / max(1.0, abs(best)))
        residuals.append(np.maximum(0.0, -np.min(gaps)))
    rstar = additive_decompose(space, reward, "soft_value", table, beta)
    logp = sequence_sums(space, reparameterize(space, rstar, table, beta).policy)
    chained = np.exp(logp - logsumexp_values(logp))
    residuals.append(np.max(np.abs(chained - optimum)))
    return _certificate("optimality", space, seed, residuals)


def check_decompose(space: EnumSpace, seed: int) -> dict:
    """Round trip of the terminal-mass (exact) and per-response uniform
    decompositions."""
    rng = _rng(seed, 3)
    residuals = []
    for _, count in _blocks(100, _draw_floats(space, per_position=True)):
        rewards = random_reward(space, rng, lead=(count,))
        residuals.append(decomposition_residual(space, rewards, additive_decompose(space, rewards)))
        totals = _sum_columns(uniform_decomposition(space, rewards))
        residuals.append(np.max(np.abs(totals - rewards)))
    return _certificate("decompose", space, seed, residuals)


def check_reparam(space: EnumSpace, seed: int) -> dict:
    """Representative identity r* - shift = beta * log(pi/pi_ref) and
    normalization of the induced policy at 1e-10, and invariance of the
    induced policy under per-context reward shifts at 1e-12."""
    rng = _rng(seed, 4)
    table = reference_table(space, _reference(space, rng))
    # one row per draw: its prefix reward, then its per-context offsets
    cut, width = space.child.size, space.child.size + len(space.contexts)
    residuals, drifts = [], []
    for start, count in _blocks(20, width):
        rows, betas = rng.standard_normal((count, width)), _betas(start, count)
        rstars = rows[:, :cut].reshape(-1, *space.child.shape)
        base = reparameterize(space, rstars, table, betas)
        residuals.append(base.max_residual)
        # summed apart from vocab_logsumexp, whose errors cancel in the identity
        residuals.append(np.max(np.abs(np.sum(np.exp(base.policy), axis=-1) - 1.0)))
        moved = reparameterize(space, rstars + rows[:, cut:, None], table, betas)
        drifts.append(np.max(np.abs(base.policy - moved.policy)))
    return _certificate("reparam", space, seed, residuals + drifts, np.max(drifts) <= 1e-12)


def check_theorem1(space: EnumSpace, seed: int) -> dict:
    """Decompose-then-reparameterize reconstructs every response-level
    reward from the policy/reference log-ratio up to one constant."""
    rng = _rng(seed, 5)
    table = reference_table(space, _reference(space, rng))
    logmass = ref_logmass(space, table)
    spreads = []
    for start, count in _blocks(20, _draw_floats(space)):
        rewards = random_reward(space, rng, lead=(count,))
        spreads.append(reconstruction_spread(space, rewards, table, logmass, _betas(start, count)))
    return _certificate("theorem1", space, seed, spreads)


CHECKS = {
    "boltzmann": check_boltzmann,
    "optimality": check_optimality,
    "decompose": check_decompose,
    "reparam": check_reparam,
    "theorem1": check_theorem1,
}


def check_names(which: str) -> list[str]:
    """The checks ``which`` names: one of CHECKS, or all of them."""
    if which == "all":
        return list(CHECKS)
    if which in CHECKS:
        return [which]
    raise ValidationError(f"unknown check {which!r}; expected all or one of {sorted(CHECKS)}")


def run_checks(
    vocab_size: int, max_len: int, seed: int, which: str = "all", mode: str = "eos"
) -> list[dict]:
    """Run the named certification (or all of them) on one space."""
    space = EnumSpace.build(vocab_size, max_len, mode)
    return [CHECKS[name](space, seed) for name in check_names(which)]
