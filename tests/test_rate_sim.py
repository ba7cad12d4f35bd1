"""Trellis forward recursion and the achievable-rate estimator."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from isirate.channel import ChannelResponse, channel_b, jeong, spectral_summary
from isirate.errors import DomainError, StateBudgetExceeded
from isirate.montecarlo import stream_rng
from isirate.rate_sim import (
    _forward_log_likelihood_scan,
    _forward_log_likelihood_sparse,
    build_trellis,
    estimate_rate,
    forward_log_likelihood,
)
from isirate.scalar import bpsk, make_trinary, mutual_info
from isirate.bounds import i_mmse_mc
from isirate.equalizer import design_mmse_dfe


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

    def test_scan_matches_sequential(self):
        rng = np.random.default_rng(11)
        for ch, x in (
            (channel_b(), bpsk()),
            (channel_b(), make_trinary(0.01)),
            (ChannelResponse((1.0,)), bpsk()),
        ):
            trellis = build_trellis(ch, x)
            y = rng.standard_normal(300)
            seq = forward_log_likelihood(y, trellis, 0.8)
            scan = _forward_log_likelihood_scan(y, trellis, 0.8)
            assert abs(scan - seq) <= 1e-12 * abs(seq)

    def test_state_budget(self):
        ch = ChannelResponse(tuple([0.1] * 22))
        with pytest.raises(StateBudgetExceeded):
            build_trellis(ch, bpsk())


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
        sparse = _forward_log_likelihood_sparse(y, trellis, 0.4)
        assert abs(sparse - seq) <= 1e-12 * abs(seq)

    @pytest.mark.parametrize("case", [2, 3])
    def test_batch_rows_equal_single_calls(self, case):
        # long enough that a row and the batch split time into different
        # chunks
        ch, x = SPARSE_CASES[case]
        trellis = build_trellis(ch, x)
        y = np.random.default_rng(5).standard_normal((3, 3000))
        batch = _forward_log_likelihood_sparse(y, trellis, 0.6)
        assert batch.shape == (3,)
        for row, value in zip(y, batch):
            assert _forward_log_likelihood_sparse(row, trellis, 0.6) == value

    def test_estimate_rate_matches_oracle(self):
        rho = 10 ** 0.6
        est = estimate_rate(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        ref = oracle_rates(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        assert np.allclose(est.notes["per_seed"], ref, rtol=1e-12, atol=0.0)
        again = estimate_rate(jeong(), bpsk(), rho, 10_000, 3, seed=7)
        assert again.notes["per_seed"] == est.notes["per_seed"]

    def test_memory_bounded_beyond_dense_scan(self):
        # 256 states: one dense scan chunk alone would be 2048 x 256^2
        # doubles (1.1 GB)
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

    def test_validation(self):
        with pytest.raises(DomainError):
            estimate_rate(channel_b(), bpsk(), 1.0, 100, 2, seed=0)
        with pytest.raises(DomainError):
            estimate_rate(channel_b(), bpsk(), -1.0, 20_000, 2, seed=0)


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
