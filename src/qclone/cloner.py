"""Universal N→M qubit cloning channel: its universality and its concatenation.

The channel is the symmetrization construction

    rho_N  ->  (N+1)/(M+1) * S_M (rho_N ⊗ 1^⊗(M-N)) S_M ,

trace-preserving on symmetric inputs; in Dicke coordinates Σ_w F_w ρ F_wᵀ with
one real factor (`_amplitudes`, at most 1, so nothing overflows) that every
path below shares. It scales the Bloch vector of the single-qubit reduction by
N(M+2)/(M(N+2)) without rotating it; saturation of that optimum is verified by
the test suite, not assumed here. Building a `CloneChannel` is the one check of
M against the `dicke` limit.

The channel moves input entry (a, b) to (a+w, b+w), so it maps the band of
Dicke coordinates (diagonal and superdiagonal), all that one output qubit
reads, to the band of the output. `_band_map(N, M)`, built uncached from the
factor, is the channel on bands, and `_output_band` applies it with the trace
guard. `_transfer(N, M)` is that map followed by the reduction's,
`symspace._reduction(M)`: a band straight to one clone's qubit, and the
module's only cache. The product `_output_qubit` is `_transfer` in the
band kernel `symspace._band_qubit`, with the trace guard, on s input bands per
channel; the channel-free tail `_shrinking` forms Bloch vectors, shrinking
factor and fidelity row by row, with its guards, on the joined rows of many
channels (`_shrinking_pieces`). `certify_cells` (universality) draws the bands
of Haar tensor powers per cell in chunks of s = max(1, BLOCK_ENTRIES // (2N+1))
samples and keeps running sums; a tail takes chunks while its rows stay within
the chunk size of the channel that opened it, and runs before the next chunk is
drawn, so memory does not grow with the sample count. `measure_chains`
(concatenation, the paper's proof) runs N→M, N→L and M→L on each chain's
stage-1 output band: one product per (stage, channel), one output band per
stage-1 channel, one tail. Neither forms a 2^N, 2^M or whole Dicke operator.

`apply_cloner_dicke` (M-N+1 shifted blocks from the same factor, nothing
cached) gives whole outputs, for the positivity check and the full-space
adapter, with the trace guard (`_check_trace`, within 1e-10); `apply_cloner`
embeds them in the full space (M within `LIMITS["full_space"]`) as
V·apply_cloner_dicke(V†ρV)·V†, V the Dicke isometry. The dense 2^M channel
remains only as an independent oracle in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb, inf, sqrt

import numpy as np

from .linalg import (
    DegenerateInputError,
    _integer_in,
    bloch_of,
    haar_random_pure,
    haar_random_pure_batch,
    hermitize,
    rng_from_seed,
)
from .symspace import (BLOCK_ENTRIES, _apply_band, _band, _band_qubit, _dicke_coords, _frozen,
                       _pure_band, _reduction, embed_dicke, symmetric_coords, tensor_power_dicke)

MIN_BLOCH_LENGTH = 1e-6


@dataclass(frozen=True)
class CloneChannel:
    """Descriptor of the universal cloner taking n_in originals to m_out clones;
    both are stored as ints, and m_out is within LIMITS["dicke"]."""

    n_in: int
    m_out: int

    def __post_init__(self):
        n = _integer_in(self.n_in, 1, inf, "n_in must be a positive integer, got {value}")
        m = _integer_in(self.m_out, n, inf, "m_out={value} must be an integer >= n_in={lo}")
        _integer_in(m, 1, "dicke", "dicke path limited to m_out <= {hi}")
        object.__setattr__(self, "n_in", n)
        object.__setattr__(self, "m_out", m)


@dataclass(frozen=True)
class CloneReport:
    n_in: int
    m_out: int
    eta_measured: float
    fidelity_measured: float
    universality_spread: float


def apply_cloner(ch, rho_n):
    """Full-space channel application for m_out within LIMITS["full_space"]: the
    Dicke engine's output embedded in the 2^M space, V·apply_cloner_dicke(V†ρV)·V†."""
    _integer_in(ch.m_out, 1, "full_space")
    coords = symmetric_coords(rho_n, ch.n_in)
    return embed_dicke(hermitize(apply_cloner_dicke(ch, coords)))


def _amplitudes(n, m):
    """The channel's one factor f (M-N+1, N+1), uncached: input entry (a, b) goes to
    (a+w, b+w) with weight f[w,a] f[w,b], f[w,a]² = (N+1) C(M-N,w) C(N,a) / ((M+1) C(M,a+w)).
    Each square is a correctly rounded ratio of two ints of binomial rows, at most 1
    by Vandermonde, so no binomial becomes a float and nothing overflows."""
    row_n, row_m, row_w = ([comb(k, j) for j in range(k + 1)] for k in (n, m, m - n))
    return np.array([[sqrt((n + 1) * c_w * c_a / ((m + 1) * row_m[a + w]))
                      for a, c_a in enumerate(row_n)] for w, c_w in enumerate(row_w)])


def _band_map(n, m):
    """The channel as a band map (d (N+1, M+1), u (N, M)), uncached, from its factor f
    (`_amplitudes`): d[a, a+w] = f[w,a]² and u[a, a+w] = f[w,a] f[w,a+1]."""
    f = _amplitudes(n, m)
    a, w = np.arange(n + 1), np.arange(m - n + 1)[:, None]
    d, u = np.zeros((n + 1, m + 1)), np.zeros((n, m))
    d[a, a + w] = f * f
    u[a[:-1], a[:-1] + w] = f[:, :-1] * f[:, 1:]
    return d, u


@lru_cache(maxsize=None)
def _transfer(n, m):
    """Read-only band map to one clone's qubit, (N+1, 2) and (N, 1): the channel's
    band map followed by the reduction's, `symspace._reduction(M)`."""
    return tuple(_frozen(t) for t in _apply_band(_band_map(n, m), _reduction(m)))


def apply_cloner_dicke(ch, coords_n):
    """Channel in Dicke coordinates: (N+1)x(N+1) in, (M+1)x(M+1) out; a
    batch (s, N+1, N+1) of inputs gives the batch (s, M+1, M+1) of outputs.

    Matrix elements follow from <D^M_j | (|D^N_a> ⊗ |x>) being nonzero only
    for wt(x) = j - a, so the identity on the blanks contributes one term per
    excess weight w: out = Σ_w F_w ρ F_wᵀ, F_w = Σ_a f[w,a] |a+w><a| with the
    factor f of `_amplitudes`, which carries the binomials and (N+1)/(M+1). For
    increasing w, the block (f[w] f[w]ᵀ) ρ is added at offset (w, w); nothing
    is cached, so memory is one output and one block. Raises if any output
    trace differs from its input trace by more than 1e-10.
    """
    coords_n = _channel_coords(ch, coords_n)
    n, m = ch.n_in, ch.m_out
    f = _amplitudes(n, m)
    out = np.zeros(coords_n.shape[:-2] + (m + 1, m + 1), dtype=complex)
    for w in range(m - n + 1):
        out[..., w:w + n + 1, w:w + n + 1] += (f[w][:, None] * f[w]) * coords_n
    _check_trace(np.trace(out, axis1=-2, axis2=-1), np.trace(coords_n, axis1=-2, axis2=-1))
    return out


def _channel_coords(ch, coords):
    """Dicke coordinates (N+1)x(N+1), or a batch of them, as the input of the
    channel `ch`; ValueError if they are malformed or N is not its n_in."""
    coords, n = _dicke_coords(coords, "dicke", batch=True)
    if n != ch.n_in:
        raise ValueError(f"coords shape {coords.shape} does not match n_in={ch.n_in}")
    return coords


def _check_trace(out_trace, in_trace):
    """Raises if any output trace differs from its input trace by more than
    1e-10, or by NaN."""
    if not (drift := np.abs(out_trace - in_trace).max()) <= 1e-10:
        raise RuntimeError(f"channel output trace differs from input trace by {drift:.3e}")


def measure_shrinking(ch, rho_n):
    """Bloch-length ratio between one output clone and the reduced input.

    Requires a non-degenerate reduced input (Bloch length >= 1e-6) and
    asserts the output Bloch vector is parallel to the input one. This is
    the certification core on one input.
    """
    eta, fid = measure_shrinking_dicke(ch, symmetric_coords(rho_n, ch.n_in))
    return CloneReport(ch.n_in, ch.m_out, float(eta), float(fid), 0.0)


def measure_shrinking_dicke(ch, coords):
    """Shrinking factor and direction-state fidelity of each input of the batch
    `coords` (s, N+1, N+1), or of one input (N+1, N+1): product, then tail."""
    band = _band(_channel_coords(ch, coords))
    return _shrinking(_band_qubit(band, _reduction(ch.n_in)), _output_qubit(ch, band))


def _output_qubit(ch, band):
    """One clone's qubit (..., 2, 2) of each input band, through `_transfer`, with
    the trace guard of `apply_cloner_dicke` on its diagonal."""
    qubit = _band_qubit(band, _transfer(ch.n_in, ch.m_out))
    _check_trace(qubit[..., 0, 0] + qubit[..., 1, 1], band[0].sum(axis=-1))
    return qubit


def _output_band(ch, band):
    """The output band (..., M+1), (..., M) of each input band (..., N+1), (..., N)
    through `_band_map`, with the trace guard of `apply_cloner_dicke`."""
    out = _apply_band(band, _band_map(ch.n_in, ch.m_out))
    _check_trace(out[0].sum(axis=-1), band[0].sum(axis=-1))
    return out


def _shrinking(q_in, q_out):
    """Shrinking factor and direction-state fidelity of each row of qubits (..., 2, 2);
    raises on a degenerate input, a non-Hermitian output or a rotated output."""
    s_in = bloch_of(q_in)
    len_in = np.linalg.norm(s_in, axis=-1)
    if len_in.min() < MIN_BLOCH_LENGTH:
        raise DegenerateInputError(
            f"reduced input Bloch length {len_in.min():.2e} below {MIN_BLOCH_LENGTH:.0e}; "
            "shrinking factor undefined")
    s_out = bloch_of(hermitize(q_out))
    len_out = np.linalg.norm(s_out, axis=-1)
    # Angle via the perpendicular residual; arccos of the normalized dot
    # product cannot resolve angles below ~1e-8.
    unit_in = s_in / len_in[..., None]
    along = np.sum(s_out * unit_in, axis=-1)
    perp = s_out - along[..., None] * unit_in
    angle = np.arcsin(np.clip(np.linalg.norm(perp, axis=-1) / len_out, 0.0, 1.0))
    if angle.max() > 1e-9:
        raise RuntimeError(f"output Bloch vector rotated by {angle.max():.3e} rad")
    # <d|q|d> for the pure state d along s_in: (tr q + unit_in·s_out) / 2
    return len_out / len_in, ((q_out[..., 0, 0] + q_out[..., 1, 1]).real + along) / 2


def _shrinking_pieces(pieces):
    """(owner, etas, fids) of each piece (owner, q_in, q_out), stacked qubits (s, 2, 2),
    in order, from one `_shrinking` call on the joined rows; no pieces give none."""
    if not pieces:
        return []
    owners, q_in, q_out = zip(*pieces)   # a lone piece is measured in place, not copied
    etas, fids = _shrinking(*(q[0] if len(q) == 1 else np.concatenate(q) for q in (q_in, q_out)))
    ends = list(accumulate(len(q) for q in q_in))
    return [(o, etas[a:b], fids[a:b]) for o, a, b in zip(owners, [0] + ends, ends)]


def _chunk_size(ch):
    """Samples per certification batch: the input bands of a batch, 2N+1 entries
    a sample and the only per-sample arrays held, stay within BLOCK_ENTRIES
    complex entries (M does not enter: each output is one qubit)."""
    return max(1, BLOCK_ENTRIES // (2 * ch.n_in + 1))


def _haar_tensor_powers(rng, count, n):
    """Bands (count, n+1), (count, n) of |psi><psi|^⊗n for count Haar-random
    psi, the same draws as count calls of haar_random_pure."""
    return _pure_band(tensor_power_dicke(haar_random_pure_batch(rng, count), n))


def certify_universality(ch, n_samples, seed):
    """Apply the channel to Haar-random tensor-power inputs, drawn as Dicke
    coordinates in batches of `_chunk_size`; the measured shrinking factor
    must not depend on the input. The batch of one of `certify_cells`."""
    return certify_cells([(ch, seed)], n_samples)[0]


def certify_cells(cells, n_samples):
    """One CloneReport per cell (channel, seed), each equal to the cell's own
    `certify_universality`: the cell keeps its stream, chunks and running sums,
    and only the tail joins chunks of many cells (see the module docstring)."""
    n_samples = _integer_in(n_samples, 2, "samples")
    stats = [(0.0, 0.0, inf, -inf)] * len(cells)   # eta and fid sums, eta min and max
    pending, room = [], 0   # the open tail's pieces and the rows it still takes

    def run_tail():
        for i, etas, fids in _shrinking_pieces(pending):
            s = stats[i]
            stats[i] = (s[0] + etas.sum(), s[1] + fids.sum(), min(s[2], etas.min()),
                        max(s[3], etas.max()))
        pending.clear()

    for i, (ch, seed) in enumerate(cells):
        rng, chunk = rng_from_seed(seed), _chunk_size(ch)
        for start in range(0, n_samples, chunk):
            k = min(chunk, n_samples - start)
            if k > room:   # a due tail runs before the next chunk is drawn
                run_tail()
                room = chunk
            room -= k
            band = _haar_tensor_powers(rng, k, ch.n_in)
            pending.append((i, _band_qubit(band, _reduction(ch.n_in)), _output_qubit(ch, band)))
            del band   # not held while the next chunk is drawn
    run_tail()
    return [CloneReport(ch.n_in, ch.m_out, float(eta_sum / n_samples), float(fid_sum / n_samples),
                        float(eta_max - eta_min))
            for (ch, _), (eta_sum, fid_sum, eta_min, eta_max) in zip(cells, stats)]


def measure_inputs(inputs):
    """(q_in, etas, fids) of inputs (channel, coords (N+1)x(N+1)) of any sizes: each
    input's reduced qubit, its output qubit through its own channel, one tail for all."""
    bands = [(ch, _band(_channel_coords(ch, coords))) for ch, coords in inputs]
    q_in = np.array([_band_qubit(band, _reduction(ch.n_in)) for ch, band in bands])
    return (q_in, *_shrinking(q_in, np.array([_output_qubit(ch, band) for ch, band in bands])))


def measure_chains(chains):
    """Stage-1 (N→M), direct (N→L) and stage-2 (M→L on the stage-1 output) shrinking
    factors of each chain (n, m, l, seed), for |psi><psi|^⊗n with psi the Haar state of
    `seed`: one input batch per n, one product per (stage, channel), one output band per
    stage-1 channel, one tail. Every channel is built, so checked, before any draw."""
    keys = dict.fromkeys(key for n, m, l, _ in chains for key in ((n, m), (m, l), (n, l)))
    # malformed keys are built first: a bad order is refused before a channel past the limit
    channels = {key: CloneChannel(*key) for key in sorted(keys, key=lambda k: 1 <= k[0] <= k[1])}
    inputs, mids, pieces = {}, {}, []   # chain index -> (diagonal, superdiagonal, qubit)
    for n in dict.fromkeys(c[0] for c in chains):
        idx = [i for i, c in enumerate(chains) if c[0] == n]
        psi = np.array([haar_random_pure(rng_from_seed(chains[i][3])) for i in idx])
        band = _pure_band(tensor_power_dicke(psi, n))
        inputs.update(zip(idx, zip(*band, _band_qubit(band, _reduction(n)))))
    for stage, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):   # stage 1, direct, stage 2
        groups, source = {}, mids if a else inputs
        for i, c in enumerate(chains):
            groups.setdefault((c[a], c[b]), []).append(i)
        for key, idx in groups.items():
            diag, off, q_in = (np.stack(x) for x in zip(*(source[i] for i in idx)))
            pieces.append(((stage, idx), q_in, _output_qubit(channels[key], (diag, off))))
            if b == 1:   # stage 2 runs on the stage-1 output bands
                out = _output_band(channels[key], (diag, off))
                mids.update(zip(idx, zip(*out, _band_qubit(out, _reduction(key[1])))))
    etas = np.empty((3, len(chains)))
    for (stage, idx), eta, _ in _shrinking_pieces(pieces):
        etas[stage, idx] = eta
    return list(zip(*etas.tolist()))


def tensor_power_input(psi, n):
    """|psi><psi|^⊗n as a full-space operator, built through Dicke coords."""
    v = tensor_power_dicke(psi, n)
    return embed_dicke(np.outer(v, v.conj()))
