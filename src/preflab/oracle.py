"""Brute-force verification of the theory on enumerable token spaces.

Everything here works by exhaustive enumeration of a small output space:
the Boltzmann form of the KL-constrained optimum, additive decomposition
of response-level rewards into prefix-wise ones, and the token-level
reparameterization that turns any prefix-wise reward into an
autoregressive policy whose log-ratio against the reference reproduces
the reward (up to a per-context shift).

A space is a set of index arrays (see ``EnumSpace``). A response-level
reward is a vector over the sequences; a prefix-wise reward, a token-level
policy and the reference's conditionals are (contexts, vocab) tables whose
entry [c, t] belongs to the prefix "context c, then token t". Every check
is a gather from such a table at (seq_ctx, sequences) plus a masked sum
over at most ``MAX_LEN`` positions, a row-wise log-softmax, or a soft-value
recursion of ``MAX_LEN`` vectorized levels.

Spaces are hard-capped at vocab size 6 and length 5. Variable-length
spaces are realized as EOS-terminated sequences, which makes the output
space prefix-free (no response is a proper prefix of another); the
canonical terminal-mass decomposition is only well-defined on prefix-free
spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import logsumexp_values
from .errors import ValidationError
from .lm import NGramPolicy, TokenSeq, Vocab
from .seeds import seed_sequence

MAX_VOCAB = 6
MAX_LEN = 5

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
    per-context arrays; id -1 means "none" throughout.

    sequences  (N, L) token ids, 0 past each sequence's end
    lengths    (N,) sequence lengths
    seq_ctx    (N, L) code of the context before each position, -1 past the end
    contexts   (n_ctx, L - 1) token ids, 0 past each context's end
    ctx_len    (n_ctx,) context lengths
    child      (n_ctx, v) code of context c extended by token t, or -1
    seq_at     (n_ctx, v) id of the sequence context c + token t, or -1
    """

    vocab: Vocab
    max_len: int
    mode: str  # "eos" (variable length, EOS-terminated) or "fixed"
    sequences: np.ndarray
    lengths: np.ndarray
    seq_ctx: np.ndarray
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
        vocab = Vocab(vocab_size)
        if mode == "eos":
            alphabet = np.array([t for t in range(vocab_size) if t != vocab.eos])
        elif mode == "fixed":
            alphabet = np.arange(vocab_size)
        else:
            raise ValidationError(f"unknown space mode {mode!r}")
        sizes = alphabet.size ** np.arange(max_len)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        ctx_len = np.repeat(np.arange(max_len), sizes)
        ctx_index = np.arange(offsets[-1]) - offsets[ctx_len]
        contexts, _ = _walk(alphabet, offsets, ctx_len, ctx_index, max_len - 1)
        if mode == "eos":
            # one sequence per context: its tokens, then EOS
            sequences, seq_ctx = _walk(alphabet, offsets, ctx_len, ctx_index, max_len)
            sequences[np.arange(ctx_len.size), ctx_len] = vocab.eos
            lengths = ctx_len + 1
        else:
            n = alphabet.size**max_len
            depth = np.full(n, max_len)
            sequences, seq_ctx = _walk(alphabet, offsets, depth, np.arange(n), max_len)
            lengths = depth
        child = np.full((ctx_len.size, vocab_size), -1)
        seq_at = np.full((ctx_len.size, vocab_size), -1)
        ys, pos = np.nonzero(seq_ctx >= 0)
        ctx, tok = seq_ctx[ys, pos], sequences[ys, pos]
        end = pos == lengths[ys] - 1
        seq_at[ctx[end], tok[end]] = ys[end]
        child[ctx[~end], tok[~end]] = seq_ctx[ys[~end], pos[~end] + 1]
        return cls(
            vocab, max_len, mode, sequences, lengths, seq_ctx, contexts, ctx_len, child, seq_at
        )


def _walk(alphabet, offsets, depth, index, width):
    """Tokens and prefix codes of the strings over ``alphabet`` given by
    their length ``depth`` and lexicographic ``index`` among strings of that
    length: token i (0 past the end) and the context code of the first i
    tokens (-1 past the end) for positions i < width."""
    w = alphabet.size
    up = depth[:, None] - np.arange(width)[None, :]
    tokens = np.where(up > 0, alphabet[index[:, None] // w ** np.maximum(up - 1, 0) % w], 0)
    codes = offsets[:width] + index[:, None] // w ** np.maximum(up, 0)
    return tokens, np.where(up >= 0, codes, -1)


def _shaped(what: str, x, shape: tuple) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != shape:
        raise ValidationError(f"{what} has shape {x.shape}, expected {shape}")
    return x


def _vector(space: EnumSpace, reward) -> np.ndarray:
    return _shaped("reward", reward, space.lengths.shape)


def _table(space: EnumSpace, rstar) -> np.ndarray:
    return _shaped("prefix reward", rstar, space.child.shape)


def _check_beta(beta) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be finite and positive, got {beta}")


def along_sequences(space: EnumSpace, table: np.ndarray) -> np.ndarray:
    """The (N, L) entries a (contexts, vocab) table assigns to every
    position of every sequence; 0 past each sequence's end."""
    live = space.seq_ctx >= 0
    return np.where(live, table[space.seq_ctx, space.sequences], 0.0)


def reference_table(space: EnumSpace, ref: NGramPolicy, prompt: TokenSeq = ()) -> np.ndarray:
    """log pi_ref(t | prompt + context) for every context and token: one
    gather from the n-gram's log-softmax table at the rows ``lm`` assigns."""
    if not isinstance(ref, NGramPolicy) or ref.vocab != space.vocab:
        raise ValidationError("the oracle's reference must be an n-gram over the space's vocab")
    rows = ref.batch_context_rows(prompt, np.pad(space.contexts, ((0, 0), (0, 1))))
    rows = rows[np.arange(len(space.contexts)), space.ctx_len]
    return ref.row_logprobs(rows[:, None], np.arange(space.vocab.size)[None, :])


def ref_logmass(space: EnumSpace, ref, prompt: TokenSeq = ()) -> np.ndarray:
    """Chain-rule log mass of every enumerated sequence under the reference."""
    return np.sum(along_sequences(space, reference_table(space, ref, prompt)), axis=1)


def random_reward(space: EnumSpace, rng, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(len(space.sequences))


def random_prefix_reward(space: EnumSpace, rng, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal(space.child.shape)


# ---------------------------------------------------------------------------
# Boltzmann distribution and the KL-constrained objective
# ---------------------------------------------------------------------------


def boltzmann_distribution(
    space: EnumSpace,
    reward,
    ref,
    beta: float,
    prompt: TokenSeq = (),
    logmass: np.ndarray | None = None,
) -> np.ndarray:
    """Distribution proportional to pi_ref(y) * exp(r(y) / beta) over the space.

    This is the maximizer of kl_objective; normalization is exact over the
    enumerated sequences. ``logmass`` may carry a precomputed
    ref_logmass(space, ref, prompt).
    """
    _check_beta(beta)
    if logmass is None:
        logmass = ref_logmass(space, ref, prompt)
    logw = logmass + _vector(space, reward) / beta
    return np.exp(logw - logsumexp_values(logw))


def kl_objective(
    space: EnumSpace,
    policy: np.ndarray,
    reward,
    ref,
    beta: float,
    prompt: TokenSeq = (),
    logmass: np.ndarray | None = None,
) -> float:
    """Expected reward minus beta times KL(policy || reference), exactly.

    ``logmass`` may carry precomputed ref_logmass(space, ref, prompt) when
    the objective is evaluated for many policies on one space.
    """
    _check_beta(beta)
    policy = _shaped("policy", policy, space.lengths.shape)
    if abs(float(np.sum(policy)) - 1.0) > 1e-9:
        raise ValidationError(
            f"policy mass {float(np.sum(policy))!r} not normalized within 1e-9"
        )
    if np.any(policy < 0):
        raise ValidationError("policy has negative probabilities")
    r = _vector(space, reward)
    if logmass is None:
        logmass = ref_logmass(space, ref, prompt)
    live = policy > 0
    kl = float(np.sum(policy[live] * (np.log(policy[live]) - logmass[live])))
    return float(np.sum(policy * r)) - beta * kl


def random_policies(space: EnumSpace, n: int, rng) -> np.ndarray:
    """Full-support random distributions: normalized exponentials of
    Gaussian logits, one row per draw.

    The same values as exp(log_softmax_values(logits, axis=1)), computed in
    place so a chunk of draws holds two (n, N) arrays at most.
    """
    logits = rng.standard_normal((n, len(space.sequences)))
    logits -= np.max(logits, axis=1, keepdims=True)
    logits -= np.log(np.sum(np.exp(logits), axis=1, keepdims=True))
    return np.exp(logits, out=logits)


def kl_objective_batch(
    space: EnumSpace,
    policies: np.ndarray,
    reward,
    ref,
    beta: float,
    prompt: TokenSeq = (),
    logmass: np.ndarray | None = None,
) -> np.ndarray:
    """kl_objective of many full-support policy rows at once.

    Agrees with kl_objective row by row; exists so sweeps over thousands of
    policies stay fast on larger spaces.
    """
    _check_beta(beta)
    policies = np.asarray(policies, dtype=np.float64)
    if policies.ndim != 2 or policies.shape[1] != len(space.sequences):
        raise ValidationError(
            f"policies have shape {policies.shape}, expected (n, {len(space.sequences)})"
        )
    if np.any(np.abs(np.sum(policies, axis=1) - 1.0) > 1e-9):
        raise ValidationError("a policy row is not normalized within 1e-9")
    if np.any(policies <= 0):
        raise ValidationError("batch objective requires strictly positive rows")
    r = _vector(space, reward)
    if logmass is None:
        logmass = ref_logmass(space, ref, prompt)
    terms = np.log(policies)
    terms -= logmass
    terms *= policies
    return policies @ r - beta * np.sum(terms, axis=1)


# ---------------------------------------------------------------------------
# additive decomposition
# ---------------------------------------------------------------------------


def additive_decompose(
    space: EnumSpace,
    reward,
    scheme: str = "terminal",
    ref=None,
    beta: float | None = None,
    prompt: TokenSeq = (),
) -> np.ndarray:
    """Split a response-level reward into per-prefix contributions, a
    (contexts, vocab) table.

    schemes:
      terminal    - all mass on the final prefix: r*(y_<=i) = 0 for interior
                    prefixes and r(y) at the full response (canonical; the
                    round trip is exact).
      soft_value  - terminal mass re-shifted by a backward soft-value
                    recursion against (ref, beta). Each prefix gains
                    V(prefix) - V(parent), which telescopes along any
                    response, so the one-step reparameterization of this
                    decomposition has an identically-zero per-context shift
                    and reproduces r up to the single constant V(empty).
    """
    reward = _vector(space, reward)
    terminal = np.zeros(space.child.shape)
    ends = space.seq_at >= 0
    terminal[ends] = reward[space.seq_at[ends]]
    if scheme == "terminal":
        return terminal
    if scheme != "soft_value":
        raise ValidationError(f"unknown decomposition scheme {scheme!r}")
    if ref is None or beta is None:
        raise ValidationError("soft_value decomposition needs ref and beta")
    _check_beta(beta)

    base = reference_table(space, ref, prompt)
    inner = space.child >= 0
    value = np.zeros(len(space.contexts))
    child_value = np.zeros(space.child.shape)
    for level in range(space.max_len - 1, -1, -1):
        block = space.ctx_len == level
        child_value[block] = np.where(inner[block], value[space.child[block]], 0.0)
        scores = base[block] + (terminal[block] + child_value[block]) / beta
        value[block] = beta * logsumexp_values(scores)
    return terminal + child_value - value[:, None]


def uniform_decomposition(space: EnumSpace, reward) -> np.ndarray:
    """Per-response even split: each of the T' prefixes of y gets r(y)/T'.

    Returned per (sequence, position), 0 past the end, rather than as a
    prefix table, because distinct responses sharing a prefix would assign
    it different values.
    """
    reward = _vector(space, reward)
    share = reward / space.lengths
    return np.where(space.seq_ctx >= 0, share[:, None], 0.0)


def decomposition_residual(space: EnumSpace, reward, rstar) -> float:
    """Max |sum of prefix contributions - r(y)| over the space."""
    totals = np.sum(along_sequences(space, _table(space, rstar)), axis=1)
    return float(np.max(np.abs(totals - _vector(space, reward))))


def energy_additivity_residual(
    space: EnumSpace,
    rstar,
    ref,
    beta: float,
    prompt: TokenSeq = (),
    table: np.ndarray | None = None,
) -> float:
    """Summed prefix posterior energies vs. the response-level posterior
    energy of the reward the decomposition induces.

    ``table`` may carry a precomputed reference_table(space, ref, prompt).
    """
    _check_beta(beta)
    if table is None:
        table = reference_table(space, ref, prompt)
    r = along_sequences(space, _table(space, rstar))
    logps = along_sequences(space, table)
    prefix_total = np.sum(-r / beta - logps, axis=1)
    whole = -np.sum(r, axis=1) / beta - np.sum(logps, axis=1)
    return float(np.max(np.abs(prefix_total - whole)))


# ---------------------------------------------------------------------------
# prefix-wise reparameterization
# ---------------------------------------------------------------------------


@dataclass
class ReparamResult:
    """Token-level policy induced by a prefix-wise reward.

    policy holds one normalized log-probability row over the vocabulary per
    context; shift holds the per-context normalizer beta * log Z whose
    subtraction from the reward makes it exactly beta * log(pi / pi_ref).
    """

    policy: np.ndarray
    shift: np.ndarray
    max_residual: float


def reparameterize(
    space: EnumSpace, rstar, ref, beta: float, prompt: TokenSeq = ()
) -> ReparamResult:
    """Per-context Boltzmann policy pi(t|ctx) ~ pi_ref(t|ctx) exp(r*(ctx+t)/beta).

    The residual reports how far r* - shift lands from beta * log(pi/pi_ref)
    across every (context, token); it should sit at float rounding error.
    """
    _check_beta(beta)
    rstar = _table(space, rstar)
    base = reference_table(space, ref, prompt)
    scores = base + rstar / beta
    lse = logsumexp_values(scores)[:, None]
    policy = scores - lse
    shift = beta * lse
    residual = np.max(np.abs((rstar - shift) - beta * (policy - base)))
    return ReparamResult(policy=policy, shift=shift[:, 0], max_residual=float(residual))


def shift_invariance_residual(
    space: EnumSpace,
    rstar,
    ref,
    beta: float,
    rng,
    scale: float = 1.0,
    prompt: TokenSeq = (),
) -> float:
    """Max row change of the induced policy under a random per-context shift."""
    offsets = scale * rng.standard_normal(len(space.contexts))
    base = reparameterize(space, rstar, ref, beta, prompt)
    moved = reparameterize(space, _table(space, rstar) + offsets[:, None], ref, beta, prompt)
    return float(np.max(np.abs(base.policy - moved.policy)))


def reconstruction_spread(
    space: EnumSpace,
    reward,
    ref,
    beta: float,
    prompt: TokenSeq = (),
    logmass: np.ndarray | None = None,
) -> float:
    """Full-pipeline check: decompose r, reparameterize, and measure how far
    beta * log(pi(y)/pi_ref(y)) - r(y) is from a single response-independent
    constant (max minus min of the deviation across the space)."""
    rstar = additive_decompose(
        space, reward, scheme="soft_value", ref=ref, beta=beta, prompt=prompt
    )
    rep = reparameterize(space, rstar, ref, beta, prompt)
    if logmass is None:
        logmass = ref_logmass(space, ref, prompt)
    logp = np.sum(along_sequences(space, rep.policy), axis=1)
    devs = beta * (logp - logmass) - _vector(space, reward)
    return float(np.max(devs) - np.min(devs))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, salt))


def _reference(space: EnumSpace, rng) -> NGramPolicy:
    return NGramPolicy.random(space.vocab, order=2, rng=rng)


def _certificate(
    check: str, space: EnumSpace, seed: int, residual: float, passed: bool
) -> dict:
    """One certificate; a non-finite residual never passes."""
    return {
        "check": check,
        "vocab_size": space.vocab.size,
        "max_len": space.max_len,
        "mode": space.mode,
        "seed": seed,
        "max_residual": float(residual),
        "tol": TOLERANCES[check],
        "pass": bool(passed and math.isfinite(residual)),
    }


def check_boltzmann(space: EnumSpace, seed: int, draws: int = 20) -> dict:
    """Normalization of the Boltzmann distribution plus the zero-reward
    limit (restriction-renormalization of the reference)."""
    rng = _rng(seed, 1)
    ref = _reference(space, rng)
    logmass = ref_logmass(space, ref)
    residuals = []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        p = boltzmann_distribution(
            space, random_reward(space, rng), ref, beta, logmass=logmass
        )
        residuals.append(abs(float(np.sum(p)) - 1.0))
    zero = np.zeros(len(space.sequences))
    p0 = boltzmann_distribution(space, zero, ref, 1.0, logmass=logmass)
    renorm = np.exp(logmass - logsumexp_values(logmass))
    residuals.append(np.max(np.abs(p0 - renorm)))
    worst = float(np.max(residuals))
    return _certificate("boltzmann", space, seed, worst, worst <= TOLERANCES["boltzmann"])


def check_optimality(
    space: EnumSpace, seed: int, policies: int = 10_000, draws: int = 20
) -> dict:
    """The Boltzmann distribution beats every random policy on the
    KL-constrained objective, and prefix posterior energies sum to the
    response-level posterior energy."""
    rng = _rng(seed, 2)
    ref = _reference(space, rng)
    reward = random_reward(space, rng)
    beta = 1.0
    logmass = ref_logmass(space, ref)
    optimum = boltzmann_distribution(space, reward, ref, beta, logmass=logmass)
    best = kl_objective(space, optimum, reward, ref, beta, logmass=logmass)
    gaps = []
    remaining = policies
    while remaining > 0:
        chunk = min(remaining, 1024)
        # drawn inline, so no chunk outlives its objectives
        objectives = kl_objective_batch(
            space, random_policies(space, chunk, rng), reward, ref, beta, logmass=logmass
        )
        gaps.append(np.min(best - objectives))
        remaining -= chunk
    residuals = [np.maximum(0.0, -np.min(gaps))]
    table = reference_table(space, ref)
    for _ in range(draws):
        rstar = random_prefix_reward(space, rng)
        residuals.append(energy_additivity_residual(space, rstar, ref, beta, table=table))
    worst = float(np.max(residuals))
    return _certificate("optimality", space, seed, worst, worst <= TOLERANCES["optimality"])


def check_decompose(space: EnumSpace, seed: int, draws: int = 100) -> dict:
    """Round trip of the terminal-mass (exact) and per-response uniform
    decompositions."""
    rng = _rng(seed, 3)
    residuals = []
    for _ in range(draws):
        reward = random_reward(space, rng)
        residuals.append(
            decomposition_residual(space, reward, additive_decompose(space, reward))
        )
        totals = np.sum(uniform_decomposition(space, reward), axis=1)
        residuals.append(np.max(np.abs(totals - reward)))
    worst = float(np.max(residuals))
    return _certificate("decompose", space, seed, worst, worst <= TOLERANCES["decompose"])


def check_reparam(space: EnumSpace, seed: int, draws: int = 20) -> dict:
    """Representative identity r* - shift = beta * log(pi/pi_ref) at 1e-10,
    and invariance of the induced policy under per-context reward shifts
    at 1e-12."""
    rng = _rng(seed, 4)
    ref = _reference(space, rng)
    residuals, drifts = [], []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        rstar = random_prefix_reward(space, rng)
        residuals.append(reparameterize(space, rstar, ref, beta).max_residual)
        drifts.append(shift_invariance_residual(space, rstar, ref, beta, rng))
    residual, drift = float(np.max(residuals)), float(np.max(drifts))
    passed = residual <= TOLERANCES["reparam"] and drift <= 1e-12
    return _certificate("reparam", space, seed, np.max([residual, drift]), passed)


def check_theorem1(space: EnumSpace, seed: int, draws: int = 20) -> dict:
    """Decompose-then-reparameterize reconstructs every response-level
    reward from the policy/reference log-ratio up to one constant."""
    rng = _rng(seed, 5)
    ref = _reference(space, rng)
    logmass = ref_logmass(space, ref)
    spreads = []
    for i in range(draws):
        beta = (0.5, 1.0, 1.5)[i % 3]
        reward = random_reward(space, rng)
        spreads.append(reconstruction_spread(space, reward, ref, beta, logmass=logmass))
    worst = float(np.max(spreads))
    return _certificate("theorem1", space, seed, worst, worst <= TOLERANCES["theorem1"])


CHECKS = {
    "boltzmann": check_boltzmann,
    "optimality": check_optimality,
    "decompose": check_decompose,
    "reparam": check_reparam,
    "theorem1": check_theorem1,
}


def run_checks(
    vocab_size: int, max_len: int, seed: int, which: str = "all", mode: str = "eos"
) -> list[dict]:
    """Run the named certification (or all of them) on one space."""
    space = EnumSpace.build(vocab_size, max_len, mode)
    if which == "all":
        names = list(CHECKS)
    elif which in CHECKS:
        names = [which]
    else:
        raise ValidationError(
            f"unknown check {which!r}; expected all or one of {sorted(CHECKS)}"
        )
    return [CHECKS[name](space, seed) for name in names]
