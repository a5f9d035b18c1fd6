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

import json
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
    "devectorize_profile",
    "apply_channel",
    "doppler_phase",
    "chernoff_tail_bound",
    "empirical_sparsity_stats",
    "profile_to_json",
    "profile_from_json",
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
        s_d = min(self.l_taps, max(1, _fuzzy_ceil(self.p_delay * self.l_taps)))
        s_dop = min(self.n_doppler, max(1, _fuzzy_ceil(self.p_doppler * self.n_doppler)))
        return s_d, s_dop

    def sparsity_levels(self) -> tuple[int, int]:
        """Margin-inflated levels used by the recovery algorithms."""
        scale = 1.0 + self.margin
        # clamped before rounding: a huge margin inflates the product to infinity
        s_d = max(1, _fuzzy_ceil(min(scale * self.p_delay * self.l_taps, self.l_taps)))
        s_dop = max(1, _fuzzy_ceil(min(scale * self.p_doppler * self.n_doppler, self.n_doppler)))
        return s_d, s_dop


@dataclass
class DelayDopplerProfile:
    """One channel realization: complex gains and the activity mask."""

    gains: np.ndarray
    mask: np.ndarray
    gain_var: float

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


def sample_profile(cfg: SparsityConfig, rng: np.random.Generator) -> DelayDopplerProfile:
    """Draw one channel realization.

    Delay indicators are i.i.d. Bernoulli(p_delay).  The Doppler pattern
    follows ``cfg.model``; gains on active entries are i.i.d. circular
    complex Gaussian with variance ``cfg.gain_variance``.
    """
    l_taps, nd = cfg.l_taps, cfg.n_doppler
    active_taps = rng.random(l_taps) < cfg.p_delay
    if cfg.model == "type1":
        pattern = rng.random(nd) < cfg.p_doppler
        doppler = np.broadcast_to(pattern, (l_taps, nd)).copy()
    elif cfg.model == "type2":
        doppler = rng.random((l_taps, nd)) < cfg.p_doppler
    else:
        starts = rng.integers(0, nd, size=l_taps)
        offsets = np.arange(cfg.cluster_len)
        doppler = np.zeros((l_taps, nd), dtype=bool)
        rows = np.repeat(np.arange(l_taps), cfg.cluster_len)
        cols = ((starts[:, None] + offsets[None, :]) % nd).reshape(-1)
        doppler[rows, cols] = True
    mask = active_taps[:, None] & doppler
    scale = math.sqrt(cfg.gain_variance / 2.0)
    gains = scale * (rng.standard_normal((l_taps, nd)) + 1j * rng.standard_normal((l_taps, nd)))
    gains[~mask] = 0.0
    return DelayDopplerProfile(gains=gains, mask=mask, gain_var=cfg.gain_variance)


def vectorize_profile(profile: DelayDopplerProfile) -> np.ndarray:
    """Row-major flattening: entry (l, q) lands at ``l (2Q+1) + Q + q``."""
    return np.where(profile.mask, profile.gains, 0.0).reshape(-1)


def devectorize_profile(
    vec, l_taps: int, q_max: int, gain_var: float = 1.0
) -> DelayDopplerProfile:
    """Inverse of :func:`vectorize_profile`; mask recovered from nonzeros."""
    nd = 2 * q_max + 1
    vec = np.asarray(vec, dtype=np.complex128)
    if vec.shape != (l_taps * nd,):
        raise ValueError(f"expected shape ({l_taps * nd},), got {vec.shape}")
    gains = vec.reshape(l_taps, nd).copy()
    return DelayDopplerProfile(gains=gains, mask=gains != 0, gain_var=gain_var)


@lru_cache(maxsize=64)
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
    r = np.zeros(n, dtype=np.complex128)
    for l in np.flatnonzero(profile.mask.any(axis=1)):
        h = np.zeros(n, dtype=np.complex128)
        for qi in np.flatnonzero(profile.mask[l]):
            h += profile.gains[l, qi] * doppler_phase(n, int(qi) - q_max)
        r += h * s_cpp[cpp - l : cpp - l + n]
    sigma = noise.sigma_w2 if noise is not None else 0.0
    if sigma > 0.0:
        if rng is None:
            raise ValueError("rng required when noise variance is positive")
        scale = math.sqrt(sigma / 2.0)
        r += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return r


def chernoff_tail_bound(n: int, p: float, level: int) -> float:
    """Chernoff bound on ``P[Binomial(n, p) > level]`` for ``level >= n p``.

    ``(p / a)^level ((1 - p) / (1 - a))^(n - level)`` with ``a = level / n``.
    """
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if level >= n:
        return p**n if level == n else 0.0
    a = level / n
    log_bound = level * math.log(p / a) + (n - level) * math.log((1.0 - p) / (1.0 - a))
    return math.exp(log_bound)


def _doppler_exceed_counts(
    cfg: SparsityConfig, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-trial, per-tap active Doppler bin counts, shape (trials, l_taps)."""
    nd = cfg.n_doppler
    if cfg.model == "type1":
        counts = (rng.random((trials, nd)) < cfg.p_doppler).sum(axis=1)
        return np.broadcast_to(counts[:, None], (trials, cfg.l_taps))
    if cfg.model == "type2":
        return (rng.random((trials, cfg.l_taps, nd)) < cfg.p_doppler).sum(axis=2)
    rng.integers(0, nd, size=(trials, cfg.l_taps))  # consume the start draws
    return np.full((trials, cfg.l_taps), cfg.cluster_len)


def empirical_sparsity_stats(
    cfg: SparsityConfig, trials: int, rng: np.random.Generator
) -> dict:
    """Monte-Carlo tail frequencies of the sparsity-level events.

    Samples activity indicators only (no gains) and reports the frequency
    of the delay count exceeding the inflated delay level, the frequency of
    some active tap exceeding the inflated Doppler level, the frequency of
    the joint hierarchical-sparsity event, and the closed-form Chernoff
    values the frequencies should stay under.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    s_d, s_dop = cfg.sparsity_levels()
    active = rng.random((trials, cfg.l_taps)) < cfg.p_delay
    delay_counts = active.sum(axis=1)
    dop_counts = _doppler_exceed_counts(cfg, trials, rng)
    joint_exceed = (active & (dop_counts > s_dop)).any(axis=1)
    delay_exceed = delay_counts > s_d

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


def profile_to_json(profile: DelayDopplerProfile) -> str:
    """Serialize to JSON: grid shape, gain variance, active (l, q, re, im)."""
    rows, cols = np.nonzero(profile.mask)
    active = [
        [int(l), int(qi) - profile.q_max, profile.gains[l, qi].real, profile.gains[l, qi].imag]
        for l, qi in zip(rows, cols)
    ]
    return json.dumps(
        {
            "l_taps": profile.l_taps,
            "q_max": profile.q_max,
            "gain_var": profile.gain_var,
            "active": active,
        }
    )


def profile_from_json(text: str) -> DelayDopplerProfile:
    """Inverse of :func:`profile_to_json`.

    An active entry off the grid, or a second entry for the same (l, q),
    raises ``ValueError`` naming the entry.
    """
    doc = json.loads(text)
    l_taps, q_max = int(doc["l_taps"]), int(doc["q_max"])
    gains = np.zeros((l_taps, 2 * q_max + 1), dtype=np.complex128)
    mask = np.zeros_like(gains, dtype=bool)
    for k, (l, q, re, im) in enumerate(doc["active"]):
        l, q = int(l), int(q)
        if not (0 <= l < l_taps and -q_max <= q <= q_max):
            raise ValueError(
                f"active entry {k} (l={l}, q={q}) lies outside the grid "
                f"l in [0, {l_taps}), q in [{-q_max}, {q_max}]"
            )
        if mask[l, q + q_max]:
            raise ValueError(f"active entry {k} (l={l}, q={q}) repeats an earlier entry")
        gains[l, q + q_max] = complex(re, im)
        mask[l, q + q_max] = True
    return DelayDopplerProfile(gains=gains, mask=mask, gain_var=float(doc["gain_var"]))
