"""Tests for the seeded Monte Carlo estimator."""

import contextlib
import dataclasses
import math
import os
import signal
import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from noma_pop import (
    DerivedParams,
    McConfig,
    binomial_z,
    pop_estimate,
    pop_value,
    reference_config,
    sample_gains,
    validate,
)
import noma_pop.montecarlo
from noma_pop.montecarlo import (
    BLOCK,
    MIN_FIRST_PARALLEL_TRIALS,
    MIN_PARALLEL_TRIALS,
    _count_chunks,
    check_point,
    chunk_rng,
    count_successes,
    point_seed,
)

FAST_MC = McConfig(trials=200_000, seed=99, chunk=50_000)


class TestSampling:
    def test_deterministic_first_draws(self):
        a = sample_gains(chunk_rng(7, 0), 8e-6, 1e-6, size=10)
        b = sample_gains(chunk_rng(7, 0), 8e-6, 1e-6, size=10)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_law_of_large_numbers(self):
        lam1 = 8e-6
        g1, _ = sample_gains(chunk_rng(42, 0), lam1, 1e-6, size=1_000_000)
        assert abs(g1.mean() - lam1) <= 3 * lam1 / math.sqrt(1_000_000)

    def test_exceedance_of_mean(self):
        lam1 = 8e-6
        g1, g2 = sample_gains(chunk_rng(43, 0), lam1, 1e-6, size=1_000_000)
        assert abs(np.mean(g1 > lam1) - math.exp(-1)) <= 0.002
        assert abs(np.mean(g2 > 1e-6) - math.exp(-1)) <= 0.002

    def test_in_place_transform_matches_formula(self):
        lam1, lam2 = 8e-6, 1e-6
        g1, g2 = sample_gains(chunk_rng(5, 3), lam1, lam2, size=70_001)
        rng = chunk_rng(5, 3)
        u1, u2 = rng.random(70_001), rng.random(70_001)
        assert np.array_equal(g1, -lam1 * np.log1p(-u1))
        assert np.array_equal(g2, -lam2 * np.log1p(-u2))

    @pytest.mark.parametrize("block", [16_384, 7_919])
    def test_block_draws_from_two_streams_match_one_draw(self, block):
        lam1, lam2, size = 8e-6, 1e-6, 70_001
        g1, g2 = sample_gains(chunk_rng(5, 3), lam1, lam2, size=size)
        rng, rng2 = chunk_rng(5, 3), chunk_rng(5, 3)
        rng2.bit_generator.advance(size)
        out = np.empty((2, block))
        parts = ([], [])
        for lo in range(0, size, block):
            n = min(block, size - lo)
            for part, g in zip(parts, sample_gains(rng, lam1, lam2, size=n,
                                                   rng2=rng2, out=out)):
                assert np.shares_memory(g, out)
                part.append(g.copy())
        for whole, part in zip((g1, g2), parts):
            assert np.array_equal(whole.view(np.int64),
                                  np.concatenate(part).view(np.int64))

    def test_rejects_bad_means(self):
        with pytest.raises(ValueError):
            sample_gains(chunk_rng(1, 0), 0.0, 1e-6, size=4)


class TestEstimator:
    def test_agrees_with_analytic_at_reference(self, ref_config,
                                               ref_derived):
        mc = McConfig(trials=1_000_000, seed=12345, chunk=250_000)
        est = pop_estimate(ref_config, 0.5, mc)
        analytic = pop_value(0.5, ref_derived)
        assert abs(est.pop_hat - analytic) <= 3 * est.std_err

    def test_certain_outage_at_tiny_snr(self):
        cfg = dataclasses.replace(reference_config(), rho_t_db=-100.0,
                                  pt_dbm=None, noise_dbm=None)
        est = pop_estimate(cfg, 0.5, FAST_MC)
        assert est.pop_hat == 1.0

    def test_case5_split_gives_one(self, ref_config):
        est = pop_estimate(ref_config, 0.01, FAST_MC)
        assert est.pop_hat == 1.0
        assert est.std_err == 0.0

    def test_deterministic_repeat(self, ref_config):
        a = pop_estimate(ref_config, 0.5, FAST_MC)
        b = pop_estimate(ref_config, 0.5, FAST_MC)
        assert a == b

    def test_chunking_covers_remainder(self, ref_config):
        mc = McConfig(trials=70_001, seed=5, chunk=30_000)
        est = pop_estimate(ref_config, 0.5, mc)
        assert 0.0 < est.pop_hat < 1.0

    def test_std_err_scaling(self, ref_config):
        small = pop_estimate(ref_config, 0.5,
                             McConfig(trials=10_000, seed=6, chunk=10_000))
        large = pop_estimate(ref_config, 0.5,
                             McConfig(trials=1_000_000, seed=6,
                                      chunk=250_000))
        ratio = small.std_err / large.std_err
        assert 8.0 <= ratio <= 12.0  # 1/sqrt(N) within +-20%

    def test_invalid_inputs(self, ref_config):
        with pytest.raises(ValueError):
            McConfig(trials=0, seed=1, chunk=10)
        # checked at construction, not by the first count
        for field, bad in (("trials", 1e5), ("chunk", 5e4), ("seed", 1.0),
                           ("seed", "1"), ("seed", -1)):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                McConfig(**{field: bad})
        with pytest.raises(ValueError):
            pop_estimate(ref_config, 0.0, FAST_MC)


class TestPinnedCounts:
    """Exact success counts. A drift in the random stream or the chunking
    changes them; so may a change in how a decode condition is rounded,
    though the rounding differs only for draws within a few ulps of a
    condition's boundary."""

    @pytest.mark.parametrize(
        "overrides, alpha, trials, chunk, seed, expected", [
            ({}, 0.5, 10_000, 250_000, 3, 8427),
            ({}, 0.3, 100_000, 50_000, 11, 72561),
            ({}, 0.5, 70_001, 30_000, 12345, 58718),
            ({"beta": 0.0}, 0.4, 70_001, 30_000, 5, 55987),
            ({"beta": 1.0}, 0.6, 70_001, 30_000, 6, 55945),
            ({}, 0.2, 500_000, 250_000, 21, 288002),
        ], ids=["below_block", "chunk_not_block_multiple", "remainder",
                "beta_0", "beta_1", "full_chunks"])
    def test_count(self, overrides, alpha, trials, chunk, seed, expected):
        cfg = dataclasses.replace(reference_config(), **overrides)
        mc = McConfig(trials=trials, seed=seed, chunk=chunk)
        assert count_successes(cfg, alpha, mc) == expected

    def test_cases_straddle_the_block(self):
        assert 10_000 < BLOCK < 30_000
        assert 50_000 % BLOCK != 0 and 30_000 % BLOCK != 0

    @pytest.mark.parametrize("block", [1_000, 7_919, 30_000, 1_000_000])
    def test_block_size_does_not_change_the_count(self, monkeypatch,
                                                  ref_config, block):
        mc = McConfig(trials=70_001, seed=4, chunk=30_000)
        want = count_successes(ref_config, 0.45, mc)
        monkeypatch.setattr(noma_pop.montecarlo, "BLOCK", block)
        assert count_successes(ref_config, 0.45, mc) == want


class TestKernelMemory:
    """The caller's kernel alone, on one CPU: no lane takes chunks out of
    sight of the memory trace or the spy."""

    def test_peak_is_one_block_workspace_whatever_the_chunk(self, fresh_lanes,
                                                            ref_config):
        fresh_lanes(1)
        peaks = []
        for chunk in (250_000, 1_000_000):
            mc = McConfig(trials=1_000_000, seed=8, chunk=chunk)
            tracemalloc.start()
            try:
                count_successes(ref_config, 0.5, mc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2 * 2**20
        assert abs(peaks[0] - peaks[1]) <= 64 * 2**10

    def test_chunk_within_one_block_builds_one_generator(self, fresh_lanes,
                                                          monkeypatch,
                                                          ref_config):
        fresh_lanes(1)
        # chunks of 30,000, 30,000 and 10,001 trials: the first two span two
        # blocks and take a second, advanced generator; the last fits in one
        indices = []

        def counted(seed, index):
            indices.append(index)
            return chunk_rng(seed, index)

        monkeypatch.setattr(noma_pop.montecarlo, "chunk_rng", counted)
        mc = McConfig(trials=70_001, seed=4, chunk=30_000)
        count_successes(ref_config, 0.45, mc)
        assert indices == [0, 0, 1, 1, 2]


PINNED_LANES = (0.2, McConfig(trials=500_000, seed=21, chunk=250_000), 288002)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def lane_pids():
    return [lane.pid for lane in noma_pop.montecarlo._lanes]


def is_gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def spy_on_fork(monkeypatch):
    """Calls of ``os.fork`` from now on, each of which fails the test."""
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def fresh_lanes(monkeypatch):
    """No lanes before or after the test, and a process that has not
    counted yet; ``cpus(n)`` fakes the affinity."""
    noma_pop.montecarlo._drop_lanes()
    monkeypatch.setattr(noma_pop.montecarlo, "_counted", False)

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)))

    yield cpus
    noma_pop.montecarlo._drop_lanes()


def warm_up(config):
    """A process's first call, which counts serially: one trial."""
    count_successes(config, 0.5, McConfig(trials=1, seed=1, chunk=1))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="lanes run on Linux only")
class TestLanes:
    @pytest.mark.parametrize("cpus, trials, chunk", [
        (2, 700_001, 250_000),
        (2, 500_000, 250_000),
        (4, 500_000, 250_000),
        (4, 500_001, 100_000),
        (4, 1_000_000, 125_000),
    ], ids=["remainder", "two_chunks", "fewer_chunks_than_lanes",
            "not_a_multiple_of_lanes", "four_lanes"])
    def test_lanes_count_what_one_lane_counts(self, fresh_lanes, ref_config,
                                              cpus, trials, chunk):
        fresh_lanes(cpus)
        warm_up(ref_config)
        mc = McConfig(trials=trials, seed=17, chunk=chunk)
        chunks = range(math.ceil(trials / chunk))
        serial = _count_chunks(DerivedParams.from_config(ref_config), 0.45,
                               mc, min(BLOCK, chunk), chunks)
        with deadline(60):
            assert count_successes(ref_config, 0.45, mc) == serial
        assert len(lane_pids()) == min(cpus, len(chunks)) - 1

    @pytest.mark.parametrize("cpus, trials, chunk, warm", [
        (1, 1_000_000, 250_000, True),
        (2, MIN_PARALLEL_TRIALS - 1, 100_000, True),
        (2, MIN_FIRST_PARALLEL_TRIALS - 1, 2_500_000, False),
        (2, 1_000_000, 1_000_000, True),
    ], ids=["one_cpu", "below_threshold", "first_call", "one_chunk"])
    def test_serial_calls_never_fork(self, fresh_lanes, monkeypatch,
                                     ref_config, cpus, trials, chunk, warm):
        fresh_lanes(cpus)
        if warm:
            warm_up(ref_config)
        forks = spy_on_fork(monkeypatch)
        mc = McConfig(trials=trials, seed=5, chunk=chunk)
        count_successes(ref_config, 0.5, mc)
        assert forks == [] and lane_pids() == []

    def test_large_first_call_starts_lanes(self, fresh_lanes, ref_config):
        fresh_lanes(2)
        mc = McConfig(trials=MIN_FIRST_PARALLEL_TRIALS, seed=5,
                      chunk=MIN_FIRST_PARALLEL_TRIALS // 4)
        with deadline(60):
            count_successes(ref_config, 0.5, mc)
        assert len(lane_pids()) == 1

    def test_other_threads_keep_the_call_serial(self, fresh_lanes,
                                                monkeypatch, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        forks = spy_on_fork(monkeypatch)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(60,))
        other.start()
        try:
            alpha, mc, want = PINNED_LANES
            assert count_successes(ref_config, alpha, mc) == want
        finally:
            stop.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert forks == [] and lane_pids() == []

    def test_failed_fork_counts_serially_and_closes_its_sockets(
            self, fresh_lanes, monkeypatch, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)

        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        fds = len(os.listdir("/proc/self/fd"))
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        assert lane_pids() == []
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("exc", [MemoryError, KeyboardInterrupt])
    def test_caller_failure_discards_lanes_in_flight(self, fresh_lanes,
                                                     monkeypatch, ref_config,
                                                     exc):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        (pid,) = lane_pids()
        raised = []

        def fails_once(*args, **kwargs):
            if not raised:
                raised.append(1)
                raise exc
            return sample_gains(*args, **kwargs)

        monkeypatch.setattr(noma_pop.montecarlo, "sample_gains", fails_once)
        # another seed, so that a stale lane reply would change the count
        with deadline(60), pytest.raises(exc):
            count_successes(ref_config, alpha,
                            dataclasses.replace(mc, seed=22))
        assert lane_pids() == [] and is_gone(pid)
        with deadline(60):
            assert count_successes(ref_config, alpha, mc) == want
        assert len(lane_pids()) == 1  # the next call starts a fresh lane

    def test_dead_lane_raises_and_is_replaced(self, fresh_lanes, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        (pid,) = lane_pids()
        os.kill(pid, signal.SIGKILL)
        with deadline(60), pytest.raises(ConnectionError, match="lane"):
            count_successes(ref_config, alpha, mc)
        assert lane_pids() == [] and is_gone(pid)
        with deadline(60):
            assert count_successes(ref_config, alpha, mc) == want
        assert len(lane_pids()) == 1 and lane_pids() != [pid]

    def test_reaped_lane_fails_the_send_and_is_replaced(self, fresh_lanes,
                                                        ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        (pid,) = lane_pids()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)  # its end of the socket pair is closed now
        with deadline(60), pytest.raises(
                ConnectionError,
                match=f"Monte Carlo lane {pid} exited") as info:
            count_successes(ref_config, alpha, mc)
        assert isinstance(info.value.__cause__, BrokenPipeError)
        assert lane_pids() == []
        with deadline(60):
            assert count_successes(ref_config, alpha, mc) == want
        assert len(lane_pids()) == 1 and lane_pids() != [pid]

    def test_lane_exception_is_raised_in_the_caller(self, fresh_lanes,
                                                    monkeypatch, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        owner = os.getpid()

        def fails_in_lane(*args, **kwargs):
            if os.getpid() != owner:
                raise ValueError("raised in a lane")
            return sample_gains(*args, **kwargs)

        # patched before the lanes fork, so the lanes run it too
        monkeypatch.setattr(noma_pop.montecarlo, "sample_gains",
                            fails_in_lane)
        alpha, mc, _ = PINNED_LANES
        for _ in range(2):  # the lanes stay in step after a lane error
            with deadline(60), pytest.raises(ValueError,
                                             match="raised in a lane"):
                count_successes(ref_config, alpha, mc)
            assert len(lane_pids()) == 1

    def test_lanes_ignore_the_default_socket_timeout(self, fresh_lanes,
                                                     monkeypatch, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        owner = os.getpid()

        def slow_in_lane(*args, **kwargs):
            if os.getpid() != owner:
                time.sleep(0.01)
            return sample_gains(*args, **kwargs)

        # patched before the lane forks, so the lane runs it too
        monkeypatch.setattr(noma_pop.montecarlo, "sample_gains", slow_in_lane)
        previous = socket.getdefaulttimeout()
        socket.setdefaulttimeout(0.001)  # far shorter than a lane's reply
        try:
            alpha, mc, want = PINNED_LANES
            with deadline(60):
                assert count_successes(ref_config, alpha, mc) == want
        finally:
            socket.setdefaulttimeout(previous)
        assert len(lane_pids()) == 1

    def test_lanes_ignore_sigint(self, fresh_lanes, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        pids = lane_pids()
        os.kill(pids[0], signal.SIGINT)
        with deadline(60):
            assert count_successes(ref_config, alpha, mc) == want
        assert lane_pids() == pids

    def test_lane_exits_once_the_owner_end_closes(self, fresh_lanes,
                                                   ref_config):
        fresh_lanes(4)
        warm_up(ref_config)
        mc = McConfig(trials=1_000_000, seed=17, chunk=250_000)
        count_successes(ref_config, 0.45, mc)
        first = noma_pop.montecarlo._lanes[0]
        # as at the owner's exit; the later lanes, forked while this end was
        # open in the owner, must not hold it open
        first.end.close()
        with deadline(60):
            _, status = os.waitpid(first.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_forked_child_holds_no_lane_open(self, fresh_lanes, ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        first = noma_pop.montecarlo._lanes[0]
        release_r, release_w = os.pipe()
        child = os.fork()
        if child == 0:  # makes no Monte Carlo call; waits to be released
            try:
                os.close(release_w)
                os.read(release_r, 1)
            finally:
                os._exit(0)
        os.close(release_r)
        try:
            # as when the owner ends without running its exit handler
            first.end.close()
            with deadline(10):
                _, status = os.waitpid(first.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            assert os.waitpid(child, os.WNOHANG) == (0, 0)  # still waiting
        finally:
            os.close(release_w)
            with deadline(60):
                os.waitpid(child, 0)

    def test_forked_child_starts_its_own_lanes(self, fresh_lanes,
                                               ref_config):
        fresh_lanes(2)
        warm_up(ref_config)
        alpha, mc, want = PINNED_LANES
        assert count_successes(ref_config, alpha, mc) == want
        pids = lane_pids()
        child = os.fork()
        if child == 0:  # starts as a fresh process: its first call is serial
            code = 2
            try:
                ok = (count_successes(ref_config, alpha, mc) == want
                      and lane_pids() == []
                      and count_successes(ref_config, alpha, mc) == want)
                own = lane_pids()
                noma_pop.montecarlo._drop_lanes()
                code = 0 if ok and len(own) == 1 and own != pids else 1
            finally:
                os._exit(code)
        with deadline(60):
            _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert count_successes(ref_config, alpha, mc) == want
        assert lane_pids() == pids


class TestCalibration:
    """The oracle over a population of points. A bias too small to flag any
    one point at |z| > 4 still moves the sum of many z, or of their squares:
    Stouffer's sum(z) / sqrt(N) and (sum(z**2) - N) / sqrt(2 N) are about
    standard normal when every z is."""

    def test_population_z_is_standard_normal(self, config_factory):
        rng = np.random.default_rng(1601)  # seeds chosen before any run
        zs = []
        for i in range(500):
            config = config_factory(rng, rho_t_db=rng.uniform(40.0, 80.0))
            alpha = rng.uniform(0.05, 0.95)
            pop = pop_value(alpha, DerivedParams.from_config(config))
            if not 1e-4 < pop < 1.0 - 1e-4:  # both outcomes seen
                continue
            mc = McConfig(trials=20_000, seed=point_seed(1602, i),
                          chunk=20_000)  # one chunk: the caller's kernel
            zs.append(check_point(config, alpha, pop, mc).z)
        n = len(zs)
        stouffer = sum(zs) / math.sqrt(n)
        spread = (sum(z * z for z in zs) - n) / math.sqrt(2 * n)
        assert n >= 100
        assert abs(stouffer) < 4 and abs(spread) < 4, (n, stouffer, spread)


class TestZScore:
    def test_degenerate_agreement(self):
        assert binomial_z(1.0, 1.0, 1000) == 0.0

    def test_degenerate_disagreement(self):
        assert binomial_z(0.999, 1.0, 1000) == -math.inf

    def test_healthy_point(self):
        z = binomial_z(0.52, 0.5, 10_000)
        assert z == pytest.approx(0.02 / math.sqrt(0.25 / 10_000), rel=1e-12)


class TestValidate:
    def test_report_shape_and_determinism(self, ref_config):
        grid = [0.2, 0.5, 0.8]
        a = validate(ref_config, grid, FAST_MC)
        b = validate(ref_config, grid, FAST_MC)
        assert a == b
        assert [r.alpha for r in a] == grid
        assert all(abs(r.z) < 4 for r in a)

    def test_points_use_independent_substreams(self, ref_config):
        # same split twice in the grid must not produce identical estimates
        rows = validate(ref_config, [0.5, 0.5], FAST_MC)
        assert rows[0].mc_pop != rows[1].mc_pop
        assert point_seed(FAST_MC.seed, 0) != point_seed(FAST_MC.seed, 1)

    def test_rows_are_check_points_on_point_seeds(self, ref_config):
        rows = validate(ref_config, [0.3, 0.6], FAST_MC)
        derived = DerivedParams.from_config(ref_config)
        assert rows == [check_point(
            ref_config, a, pop_value(a, derived),
            dataclasses.replace(FAST_MC, seed=point_seed(FAST_MC.seed, i)))
            for i, a in enumerate([0.3, 0.6])]

    def test_empty_grid_rejected(self, ref_config):
        with pytest.raises(ValueError):
            validate(ref_config, [], FAST_MC)

    def test_corrupted_analytic_is_flagged(self, monkeypatch, ref_config):
        monkeypatch.setattr(noma_pop.montecarlo, "pop_value",
                            lambda a, d: pop_value(a, d) + 0.05)
        rows = validate(ref_config, [0.5], FAST_MC)
        assert abs(rows[0].z) > 4

    def test_case5_grid_point_agrees_exactly(self, ref_config):
        rows = validate(ref_config, [0.01], FAST_MC)
        assert rows[0].analytic_pop == 1.0
        assert rows[0].mc_pop == 1.0
        assert rows[0].z == 0.0

    def test_reference_grid_statistical_acceptance(self, ref_config):
        # 25-point split grid at the reference defaults, 1e6 trials each
        grid = list(np.linspace(0.1, 0.9, 25))
        mc = McConfig(trials=1_000_000, seed=20240810, chunk=250_000)
        rows = validate(ref_config, grid, mc)
        within3 = sum(abs(r.z) <= 3 for r in rows) / len(rows)
        assert within3 >= 0.95
        assert all(abs(r.z) <= 4 for r in rows)
