"""Trellis forward recursion and the achievable-rate estimator."""

import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import isirate
import isirate.montecarlo
from isirate.channel import ChannelResponse, channel_b, jeong, spectral_summary
from isirate.errors import BudgetExceeded, DomainError
from isirate.montecarlo import IsiOutputStream, stream_rng
from isirate.rate_sim import (
    _block_multiple,
    _initial_state_probs,
    _log_likelihoods,
    _m_step_paths,
    _SparseStep,
    build_trellis,
    estimate_rate,
)
from isirate.scalar import InputDistribution, bpsk, make_trinary, mutual_info
from isirate.bounds import i_mmse_mc
from isirate.equalizer import design_mmse_dfe

from conftest import forward_log_likelihood, sample_indices


def brute_force_log_likelihood(y, channel, x, n0):
    """log p(y) by summing over every input sequence (incl. warmup)."""
    taps = np.asarray(channel.taps)
    mem = channel.length - 1
    atoms = np.asarray(x.atoms)
    probs = np.asarray(x.probs)
    n = len(y)
    total = 0.0
    for combo in itertools.product(range(atoms.size), repeat=n + mem):
        seq = atoms[list(combo)]
        pr = probs[list(combo)].prod()
        clean = np.convolve(seq, taps)[mem : mem + n]
        total += pr * math.exp(-0.5 * float(np.sum((y - clean) ** 2)) / n0) / (
            2 * math.pi * n0
        ) ** (n / 2)
    return math.log(total)


# (channel, input) pairs with memory 0 to 3 and 1, 1, 2, 3, 4, 9, 8 and 27
# states: every route of the forward recursion
KERNEL_CASES = (
    (ChannelResponse((1.0,)), bpsk()),
    (ChannelResponse((1.0,)), make_trinary(0.2)),
    (ChannelResponse((0.8, 0.6)), bpsk()),
    (ChannelResponse((0.8, 0.6)), make_trinary(0.2)),
    (channel_b(), bpsk()),
    (channel_b(), make_trinary(0.2)),
    (ChannelResponse((0.5, 0.6, -0.4, 0.3)), bpsk()),
    (ChannelResponse((0.5, 0.6, -0.4, 0.3)), make_trinary(0.2)),
)


class TestForwardRecursion:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        ch = ChannelResponse((0.8, 0.5, -0.3))
        x = make_trinary(0.2)
        trellis = build_trellis(ch, x)
        n0 = 0.7
        idx = rng.integers(0, 3, 12)
        xs = np.asarray(x.atoms)[idx]
        y = np.convolve(xs, ch.taps)[2:12] + math.sqrt(n0) * rng.standard_normal(10)
        brute = brute_force_log_likelihood(y, ch, x, n0)
        fwd = forward_log_likelihood(y, trellis, n0)
        assert abs(fwd - brute) <= 1e-10 * abs(brute)

    def test_renormalization_schedule_invariant(self):
        rng = np.random.default_rng(8)
        ch = channel_b()
        x = bpsk()
        trellis = build_trellis(ch, x)
        y = rng.standard_normal(256)
        a = forward_log_likelihood(y, trellis, 0.5, renorm_every=1)
        b = forward_log_likelihood(y, trellis, 0.5, renorm_every=64)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_batched_kernels_match_oracle(self):
        # every route: memoryless, dense m-step (memory 1-3, 2-9 states,
        # with leftover steps past a multiple of m) and sparse (27 states);
        # three blocks per row, the last not a multiple of m or of a chunk
        rng = np.random.default_rng(11)
        for ch, x in KERNEL_CASES:
            trellis = build_trellis(ch, x)
            multiple = _block_multiple(trellis)
            y = 1.5 * rng.standard_normal((3, 2 * multiple + 1003))
            blocks = [y[:, :multiple], y[:, multiple : 2 * multiple], y[:, 2 * multiple :]]
            got = _log_likelihoods(blocks, trellis, 0.5, 3)
            for row, value in zip(y, got):
                seq = forward_log_likelihood(row, trellis, 0.5)
                assert abs(value - seq) <= 1e-12 * abs(seq), trellis.n_states

    def test_batch_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(12)
        for ch, x in KERNEL_CASES:
            trellis = build_trellis(ch, x)
            y = rng.standard_normal((3, 2 * _block_multiple(trellis) + 1003))
            batch = _log_likelihoods([y], trellis, 0.6, 3)
            for row, value in zip(y, batch):
                assert _log_likelihoods([row[None]], trellis, 0.6, 1)[0] == value

    def test_m_step_paths_walk_next_state(self):
        for ch, x in KERNEL_CASES + ((ChannelResponse((0.5, 0.6, -0.4, 0.3, 0.2)), bpsk()),):
            trellis = build_trellis(ch, x)
            n_states, n_atoms = trellis.outputs.shape
            if n_states == 1:
                continue
            paths = _m_step_paths(trellis)
            m = ch.length - 1
            assert paths.shape == (m, n_states**2)
            seen = set()
            for old in range(n_states):
                for word in itertools.product(range(n_atoms), repeat=m):
                    state, walked = old, []
                    for atom in word:
                        walked.append(state * n_atoms + atom)
                        state = int(trellis.next_state[state, atom])
                    entry = state * n_states + old
                    assert entry not in seen
                    seen.add(entry)
                    assert list(paths[:, entry]) == walked

    def test_state_budget(self):
        ch = ChannelResponse(tuple([0.1] * 22))
        with pytest.raises(BudgetExceeded):
            build_trellis(ch, bpsk())


def sparse_log_likelihood(y, trellis, n0):
    """log p(y) per row of a 2-D y by the sparse recursion alone."""
    alpha = np.tile(_initial_state_probs(trellis), (y.shape[0], 1))
    return _SparseStep(trellis, n0, y.shape[0]).advance(y, alpha, np.zeros(y.shape[0]))[1]


# (channel, input) pairs with 4, 9, 27 and 64 states
SPARSE_CASES = (
    (channel_b(), bpsk()),
    (channel_b(), make_trinary(0.01)),
    (ChannelResponse((0.5, 0.6, -0.4, 0.3)), make_trinary(0.2)),
    (jeong(), bpsk()),
)


def oracle_rates(channel, x, rho, n_symbols, n_seeds, seed):
    """Per-seed rates from the reference recursion on the estimator's streams."""
    trellis = build_trellis(channel, x)
    taps = np.asarray(channel.taps)
    mem = channel.length - 1
    n0 = x.power / rho
    rates = []
    for s in range(n_seeds):
        rng = stream_rng(seed, s)
        idx = np.searchsorted(np.cumsum(x.probs), rng.random(n_symbols + mem))
        clean = np.convolve(np.asarray(x.atoms)[idx], taps)[mem : mem + n_symbols]
        noise = math.sqrt(n0) * rng.standard_normal(n_symbols)
        log_p_cond = -0.5 * float(noise @ noise) / n0 - 0.5 * n_symbols * math.log(
            2.0 * math.pi * n0
        )
        log_p = forward_log_likelihood(clean + noise, trellis, n0)
        rates.append((log_p_cond - log_p) / n_symbols)
    return np.array(rates)


class TestSparseRecursion:
    @pytest.mark.parametrize("case", range(len(SPARSE_CASES)))
    def test_matches_sequential(self, case):
        ch, x = SPARSE_CASES[case]
        trellis = build_trellis(ch, x)
        y = 1.5 * np.random.default_rng(case).standard_normal(400)
        seq = forward_log_likelihood(y, trellis, 0.4)
        sparse = sparse_log_likelihood(y[None], trellis, 0.4)[0]
        assert abs(sparse - seq) <= 1e-12 * abs(seq)

    @pytest.mark.parametrize("case", [2, 3])
    def test_batch_rows_equal_single_calls(self, case):
        # long enough that a row and the batch split time into different
        # chunks
        ch, x = SPARSE_CASES[case]
        trellis = build_trellis(ch, x)
        y = np.random.default_rng(5).standard_normal((3, 3000))
        batch = sparse_log_likelihood(y, trellis, 0.6)
        assert batch.shape == (3,)
        for row, value in zip(y, batch):
            assert sparse_log_likelihood(row[None], trellis, 0.6)[0] == value

    def test_estimate_rate_matches_oracle(self):
        rho = 10 ** 0.6
        est = estimate_rate(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        ref = oracle_rates(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        assert np.allclose(est.notes["per_seed"], ref, rtol=1e-12, atol=0.0)
        again = estimate_rate(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        assert again.notes["per_seed"] == est.notes["per_seed"]

    def test_memory_bounded_beyond_dense_scan(self):
        # 256 states: 2048 dense 256 x 256 step matrices alone would take
        # 1.1 GB
        ch = ChannelResponse((0.1, 0.2, 0.3, 0.4, 0.6, 0.4, 0.3, 0.2, 0.1))
        rho = 2.0
        tracemalloc.start()
        try:
            est = estimate_rate(ch, bpsk(), rho, 10_000, 2, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        ref = oracle_rates(ch, bpsk(), rho, 10_000, 2, seed=3)
        assert np.allclose(est.notes["per_seed"], ref, rtol=1e-12, atol=0.0)


class TestStreams:
    @pytest.mark.parametrize("n", [10_003, 123_457])
    def test_blocks_equal_one_shot_draw(self, n):
        n0 = 0.7
        for ch, x in ((ChannelResponse((1.0,)), bpsk()), (channel_b(), make_trinary(0.2)), (jeong(), bpsk())):
            taps = np.asarray(ch.taps)
            mem = taps.size - 1
            atoms = np.asarray(x.atoms)
            cum = np.cumsum(x.probs)
            rng = stream_rng(9, 4)
            xs = atoms[sample_indices(rng.random(n + mem), cum)]
            clean = np.convolve(xs, taps)[mem : mem + n]
            noise = math.sqrt(n0) * rng.standard_normal(n)
            stream = IsiOutputStream(9, 4, atoms, cum, taps, n0, n)
            blocks = [stream.draw(min(997, n - start)) for start in range(0, n, 997)]
            assert np.array_equal(np.concatenate([c for c, _ in blocks]), clean)
            assert np.array_equal(np.concatenate([z for _, z in blocks]), noise)

    def test_per_seed_rates_independent_of_seed_count(self):
        for ch, x in ((channel_b(), make_trinary(0.01)), (ChannelResponse((0.5, 0.6, -0.4, 0.3)), make_trinary(0.2))):
            two = estimate_rate(ch, x, 1.0, 10_001, 2, seed=4)
            three = estimate_rate(ch, x, 1.0, 10_001, 3, seed=4)
            assert three.notes["per_seed"][:2] == two.notes["per_seed"]

    def test_memory_bounded_independent_of_n(self):
        # the (n_seeds, n) output buffer alone would take 128 MB. A child
        # process reads its peak resident set after a warm-up call, after
        # 2e5 symbols per seed and after 2e6: neither the growth between
        # the two lengths nor the peak above the warm baseline reaches 4 MB
        code = textwrap.dedent(
            """
            import json, resource
            from isirate.channel import channel_b
            from isirate.rate_sim import estimate_rate
            from isirate.scalar import make_trinary

            def rss():
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

            x = make_trinary(0.01)
            estimate_rate(channel_b(), x, 1.0, 20_000, 8, seed=6)
            warm = rss()
            estimate_rate(channel_b(), x, 1.0, 200_000, 8, seed=6)
            short = rss()
            est = estimate_rate(channel_b(), x, 1.0, 2_000_000, 8, seed=6)
            print(json.dumps([warm, short, rss(), est.value]))
            """
        )
        src = os.path.dirname(os.path.dirname(isirate.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        warm, short, long_, value = json.loads(run.stdout)
        assert long_ - short < 4 * 2**20
        assert long_ - warm < 4 * 2**20
        assert 0.0 < value < make_trinary(0.01).entropy


class TestEstimateRate:
    def test_memoryless_calibration(self):
        for rho in (0.5, 2.0):
            est = estimate_rate(ChannelResponse((1.0,)), bpsk(), rho, 100_000, 6, seed=11)
            assert abs(est.value - mutual_info(bpsk(), rho)) <= 3.0 * est.std_error

    def test_bound_sandwich(self):
        rho = 10.0
        est = estimate_rate(channel_b(), bpsk(), rho, 100_000, 4, seed=21)
        d = design_mmse_dfe(channel_b(), bpsk(), rho)
        mc = i_mmse_mc(d, bpsk(), 50_000, seed=22)
        joint = 3.0 * math.hypot(est.std_error, mc.std_error)
        assert est.value >= mc.value - joint
        gauss = spectral_summary(channel_b(), rho).gaussian_rate
        assert est.value <= gauss + 3.0 * est.std_error
        assert est.value <= bpsk().entropy + 3.0 * est.std_error

    def test_deterministic(self):
        a = estimate_rate(channel_b(), bpsk(), 1.0, 20_000, 3, seed=5)
        b = estimate_rate(channel_b(), bpsk(), 1.0, 20_000, 3, seed=5)
        assert a.value == b.value
        assert a.notes["per_seed"] == b.notes["per_seed"]

    def test_stderr_positive(self):
        est = estimate_rate(channel_b(), bpsk(), 1.0, 20_000, 3, seed=5)
        assert est.std_error > 0.0
        assert est.n_seeds == 3

    def test_uniform_above_rounded_cumulative_stays_in_alphabet(self, monkeypatch):
        # probabilities summing to 1 - 1e-13 pass validation; their cumsum
        # ends at 0.9999999999999001, below the injected uniform
        x = InputDistribution((-0.9999999999998, 1.0), (0.5, 0.4999999999999))

        class InjectedUniform:
            def __init__(self, rng):
                self._rng = rng

            def random(self, n):
                u = self._rng.random(n)
                u[0] = 0.99999999999995
                return u

            def __getattr__(self, name):
                return getattr(self._rng, name)

        monkeypatch.setattr(
            isirate.montecarlo, "stream_rng", lambda seed, s: InjectedUniform(stream_rng(seed, s))
        )
        est = estimate_rate(channel_b(), x, 1.0, 20_000, 2, seed=5)
        assert math.isfinite(est.value)

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_rate(channel_b(), bpsk(), 1.0, 100, 2, seed=0)
        with pytest.raises(DomainError):
            estimate_rate(channel_b(), bpsk(), -1.0, 20_000, 2, seed=0)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_rejects_non_finite_rho(self, rho):
        with pytest.raises(DomainError):
            estimate_rate(channel_b(), bpsk(), rho, 20_000, 2, seed=0)


class TestTrellisStructure:
    def test_shapes_and_transitions(self):
        ch = channel_b()
        x = make_trinary(0.2)
        tre = build_trellis(ch, x)
        n_states, n_atoms = tre.outputs.shape
        assert n_states == len(x.atoms) ** (ch.length - 1)
        assert n_atoms == len(x.atoms)
        assert tre.next_state.shape == (n_states, n_atoms)
        assert np.all((tre.next_state >= 0) & (tre.next_state < n_states))
        # each state has |atoms| distinct successors
        assert all(len(set(row)) == n_atoms for row in tre.next_state)

    def test_outputs_consistent_with_convolution(self):
        ch = channel_b()
        x = make_trinary(0.2)
        tre = build_trellis(ch, x)
        rng = np.random.default_rng(4)
        atoms = np.asarray(x.atoms)
        taps = np.asarray(ch.taps)
        idx = rng.integers(0, atoms.size, 40)
        xs = atoms[idx]
        clean = np.convolve(xs, taps)
        # walk the trellis along the same inputs; the arbitrary start state
        # only affects the skipped warmup outputs
        state = 0
        outs = []
        for k, a in enumerate(idx):
            if k >= ch.length - 1:
                outs.append(tre.outputs[state, a])
            state = int(tre.next_state[state, a])
        assert np.allclose(outs, clean[ch.length - 1 : len(idx)], atol=1e-12)
