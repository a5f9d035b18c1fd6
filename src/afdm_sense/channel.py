"""Doubly sparse linear time-varying channel simulation.

A channel realization lives on an ``l_taps x (2 q_max + 1)`` delay-Doppler
grid.  Delay activity is Bernoulli per tap; Doppler activity within a tap
follows one of three models:

* ``type1`` - one random Doppler pattern shared by every active tap,
* ``type2`` - independent Bernoulli Doppler pattern per tap,
* ``type3`` - per tap, one contiguous cluster (circular wrap at the grid
  edge) of fixed length at a uniformly random start.

Active gains are i.i.d. circular complex Gaussian with variance chosen so
the expected total channel power is exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .daft_core import AfdmParams

__all__ = [
    "SparsityConfig",
    "DelayDopplerProfile",
    "NoiseConfig",
    "sample_profile",
    "vectorize_profile",
    "apply_channel",
    "doppler_phase",
    "chernoff_tail_bound",
    "empirical_sparsity_stats",
]

_MODELS = ("type1", "type2", "type3")


def _fuzzy_ceil(x: float) -> int:
    # math.ceil applied after float products like 0.2 * 30 must not round up
    # on representation noise
    return math.ceil(x - 1e-9)


@dataclass(frozen=True)
class SparsityConfig:
    """Grid shape, activity probabilities and derived sparsity levels."""

    model: str
    l_taps: int
    q_max: int
    p_delay: float
    p_doppler: float = 0.0
    cluster_len: int | None = None
    margin: float = 0.5

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.l_taps < 1 or self.q_max < 0:
            raise ValueError("l_taps must be >= 1 and q_max >= 0")
        if not 0.0 < self.p_delay < 1.0:
            raise ValueError(f"p_delay must lie in (0, 1), got {self.p_delay}")
        if not (math.isfinite(self.margin) and self.margin >= 0.0):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")
        if self.model == "type3":
            if self.cluster_len is None:
                raise ValueError("type3 requires cluster_len")
            if not 1 <= self.cluster_len <= self.n_doppler:
                raise ValueError(
                    f"cluster_len must lie in [1, {self.n_doppler}], got {self.cluster_len}"
                )
            # cluster length fixes the per-bin activity probability
            object.__setattr__(self, "p_doppler", self.cluster_len / self.n_doppler)
        elif not 0.0 < self.p_doppler < 1.0:
            raise ValueError(f"p_doppler must lie in (0, 1), got {self.p_doppler}")

    @property
    def n_doppler(self) -> int:
        return 2 * self.q_max + 1

    @property
    def gain_variance(self) -> float:
        """Per-entry gain variance making the expected channel power one."""
        return 1.0 / (self.l_taps * self.p_delay * self.n_doppler * self.p_doppler)

    def mean_sparsity_levels(self) -> tuple[int, int]:
        """Expected active tap / bin counts, rounded up and clamped."""
        return self._levels(1.0)

    def sparsity_levels(self) -> tuple[int, int]:
        """Margin-inflated levels used by the recovery algorithms."""
        return self._levels(1.0 + self.margin)

    def _levels(self, scale: float) -> tuple[int, int]:
        # clamped before rounding: a huge margin inflates the product to infinity
        s_d = max(1, _fuzzy_ceil(min(scale * self.p_delay * self.l_taps, self.l_taps)))
        s_dop = max(1, _fuzzy_ceil(min(scale * self.p_doppler * self.n_doppler, self.n_doppler)))
        return s_d, s_dop


@dataclass
class DelayDopplerProfile:
    """One channel realization: complex gains and the activity mask."""

    gains: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.gains.ndim != 2 or self.gains.shape != self.mask.shape:
            raise ValueError("gains and mask must be 2-d arrays of equal shape")
        if self.gains.shape[1] % 2 == 0:
            raise ValueError("Doppler dimension must be odd (2 q_max + 1)")

    @property
    def l_taps(self) -> int:
        return self.gains.shape[0]

    @property
    def q_max(self) -> int:
        return (self.gains.shape[1] - 1) // 2


@dataclass(frozen=True)
class NoiseConfig:
    """Complex Gaussian noise level, settable directly or via SNR in dB."""

    sigma_w2: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_w2) and self.sigma_w2 >= 0.0):
            raise ValueError(f"noise variance must be finite and >= 0, got {self.sigma_w2}")

    @classmethod
    def from_snr_db(cls, snr_db: float) -> "NoiseConfig":
        try:
            sigma_w2 = 10.0 ** (-snr_db / 10.0)
        except OverflowError:
            sigma_w2 = math.inf
        if not math.isfinite(sigma_w2):
            raise ValueError(f"snr_db must give a finite noise variance, got {snr_db}")
        return cls(sigma_w2=sigma_w2)


def _delay_activity(cfg: SparsityConfig, rng: np.random.Generator, lead: tuple = ()):
    """Delay activity, shape ``lead + (L,)``, of ``lead`` independent realizations."""
    return rng.random(lead + (cfg.l_taps,)) < cfg.p_delay


def _doppler_activity(cfg: SparsityConfig, rng: np.random.Generator, lead: tuple = ()):
    """Doppler activity, shape ``lead + (L, 2Q+1)`` (for type1 a broadcast
    view), of ``lead`` independent realizations.  Drawn after their delay
    activity, it is the one sampler of the trials and the tail statistics;
    consecutive slices of realizations draw the stream of all of them."""
    l_taps, nd = cfg.l_taps, cfg.n_doppler
    if cfg.model == "type1":
        pattern = rng.random(lead + (nd,)) < cfg.p_doppler
        return np.broadcast_to(pattern[..., None, :], lead + (l_taps, nd))
    if cfg.model == "type2":
        return rng.random(lead + (l_taps, nd)) < cfg.p_doppler
    # row s: the circular cluster that starts at bin s
    clusters = (np.arange(nd) - np.arange(nd)[:, None]) % nd < cfg.cluster_len
    return clusters[rng.integers(0, nd, size=lead + (l_taps,))]


def sample_profile(cfg: SparsityConfig, rng: np.random.Generator) -> DelayDopplerProfile:
    """Draw one channel realization.

    Delay indicators are i.i.d. Bernoulli(p_delay).  The Doppler pattern
    follows ``cfg.model``; gains on active entries are i.i.d. circular
    complex Gaussian with variance ``cfg.gain_variance``.
    """
    l_taps, nd = cfg.l_taps, cfg.n_doppler
    taps = _delay_activity(cfg, rng)
    doppler = _doppler_activity(cfg, rng)
    mask = taps[:, None] & doppler
    scale = math.sqrt(cfg.gain_variance / 2.0)
    gains = scale * (rng.standard_normal((l_taps, nd)) + 1j * rng.standard_normal((l_taps, nd)))
    gains[~mask] = 0.0
    return DelayDopplerProfile(gains=gains, mask=mask)


def vectorize_profile(profile: DelayDopplerProfile) -> np.ndarray:
    """Row-major flattening: entry (l, q) lands at ``l (2Q+1) + Q + q``."""
    return np.where(profile.mask, profile.gains, 0.0).reshape(-1)


@lru_cache(maxsize=None)  # a bound below 2 q_max + 1 would evict the tables a sweep warms
def doppler_phase(n: int, doppler: int) -> np.ndarray:
    """Doppler modulation ``exp(+i 2 pi m q / n)``, m = 0..n-1 (cached, read-only)."""
    idx = np.arange(n, dtype=np.int64)
    phase = np.exp(2j * np.pi * (((doppler % n) * idx) % n) / n)
    phase.setflags(write=False)
    return phase


def apply_channel(
    s_cpp,
    profile: DelayDopplerProfile,
    params: AfdmParams,
    noise: NoiseConfig | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Propagate a prefixed frame through the channel and add noise.

    Output sample ``m`` is ``sum_l h[l, m] s_{m-l}`` where delayed reads
    fall into the prefix and ``h[l, m] = sum_q gains[l, q] e^{i 2 pi m q / n}``.
    Returns the main-frame samples (prefix consumed, not returned).
    """
    s_cpp = np.asarray(s_cpp, dtype=np.complex128)
    n, cpp = params.n, params.cpp_len
    if s_cpp.shape != (n + cpp,):
        raise ValueError(f"prefixed frame must have shape ({n + cpp},), got {s_cpp.shape}")
    if profile.l_taps - 1 > cpp:
        raise ValueError(
            f"prefix too short: need cpp_len >= {profile.l_taps - 1}, have {cpp}"
        )
    q_max = profile.q_max
    taps = np.flatnonzero(profile.mask.any(axis=1))
    # a sum's first term is written straight into it, the others formed in a
    # reused buffer and added: every tap's h, and r over the taps
    r = np.empty(n, dtype=np.complex128) if len(taps) else np.zeros(n, dtype=np.complex128)
    h = np.empty(n, dtype=np.complex128)
    term = np.empty(n, dtype=np.complex128)
    for k, l in enumerate(taps):
        for j, qi in enumerate(np.flatnonzero(profile.mask[l])):
            phase = doppler_phase(n, int(qi) - q_max)
            np.multiply(profile.gains[l, qi], phase, out=term if j else h)
            if j:
                h += term
        np.multiply(h, s_cpp[cpp - l : cpp - l + n], out=term if k else r)
        if k:
            r += term
    sigma = noise.sigma_w2 if noise is not None else 0.0
    if sigma > 0.0:
        if rng is None:
            raise ValueError("rng required when noise variance is positive")
        # one draw of 2n is the stream of two draws of n: real parts, then imaginary
        w = rng.standard_normal(2 * n)
        w *= math.sqrt(sigma / 2.0)
        r.real += w[:n]
        r.imag += w[n:]
    return r


def chernoff_tail_bound(n: int, p: float, level: int) -> float:
    """Chernoff bound on ``P[Binomial(n, p) > level]``.

    ``(p / a)^level ((1 - p) / (1 - a))^(n - level)`` with ``a = level / n``
    for ``level >= n p``; below the mean, where the formula bounds nothing,
    the trivial bound 1.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if level < n * p:
        return 1.0
    if level >= n:
        return p**n if level == n else 0.0
    a = level / n
    log_bound = level * math.log(p / a) + (n - level) * math.log((1.0 - p) / (1.0 - a))
    return math.exp(log_bound)


# realizations whose Doppler activity the tail statistics draw at once
_STATS_SLICE = 4096


def empirical_sparsity_stats(
    cfg: SparsityConfig, trials: int, rng: np.random.Generator
) -> dict:
    """Monte-Carlo tail frequencies of the sparsity-level events.

    Draws each trial's activity as :func:`sample_profile` does, without the
    gains, and reports the frequency of the delay count exceeding the
    inflated delay level, the frequency of some active tap exceeding the
    inflated Doppler level, the frequency of the joint hierarchical-sparsity
    event, and the closed-form Chernoff values the frequencies should stay
    under.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    s_d, s_dop = cfg.sparsity_levels()
    active = _delay_activity(cfg, rng, (trials,))
    # the Doppler draws follow a slice of realizations at a time, so that
    # one slice's floats, not every trial's, exist at once
    joint_exceed = np.empty(trials, dtype=bool)
    for start in range(0, trials, _STATS_SLICE):
        stop = min(start + _STATS_SLICE, trials)
        doppler = _doppler_activity(cfg, rng, (stop - start,))
        row_exceed = doppler.sum(axis=2) > s_dop
        joint_exceed[start:stop] = (active[start:stop] & row_exceed).any(axis=1)
    delay_exceed = active.sum(axis=1) > s_d

    chernoff_row = chernoff_tail_bound(cfg.n_doppler, cfg.p_doppler, s_dop)
    if cfg.model == "type1":
        chernoff_joint = min(1.0, chernoff_row)
    elif cfg.model == "type2":
        chernoff_joint = min(1.0, cfg.l_taps * cfg.p_delay * chernoff_row)
    else:
        chernoff_joint = 0.0 if cfg.cluster_len <= s_dop else min(1.0, cfg.l_taps * cfg.p_delay)

    return {
        "trials": trials,
        "delay_level": s_d,
        "doppler_level": s_dop,
        "prob_delay_exceed": float(delay_exceed.mean()),
        "chernoff_delay_bound": chernoff_tail_bound(cfg.l_taps, cfg.p_delay, s_d),
        "prob_doppler_exceed_joint": float(joint_exceed.mean()),
        "chernoff_doppler_bound": chernoff_joint,
        "prob_hierarchically_sparse": float((~delay_exceed & ~joint_exceed).mean()),
    }
