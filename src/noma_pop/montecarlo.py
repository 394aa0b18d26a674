"""Monte Carlo estimation of the pair outage probability.

Draws independent exponential channel gains for both users, applies the four
decode conditions at SINR level, and counts the trials where any condition
fails. Each condition, SINR c * g / (k * g + 1 / rho_t) > pi with the
coefficients of ``model.decode_terms``, is tested with its positive
denominator cleared, as c * g > (pi * k) * g + pi / rho_t: no divide and no
SINR array. Trials are split into fixed-size chunks, each driven by its own
deterministically derived substream, so the aggregate count depends only on
(seed, chunk size, trial count) and never on scheduling or worker count.
A chunk's substream holds all its u1 draws, then all its u2 draws. The chunk
reads both halves block by block, u2 from a second copy of the substream
advanced past the u1 half, so BLOCK trials at a time are drawn, tested and
counted in one workspace that stays in cache and is allocated once
per call. A chunk that fits in one block draws both halves from the one
generator, u2 right after u1: the same bits, without the second copy. The
decode conditions are elementwise, so the count does not depend on BLOCK.

On Linux a call of two or more chunks and at least MIN_PARALLEL_TRIALS
trials (MIN_FIRST_PARALLEL_TRIALS if it is the process's first) also uses
the L CPUs the process may run on (``os.sched_getaffinity``): chunk ``i``
goes to lane ``i mod L``. Lane 0 is the caller; each other lane is a process
forked on first use and kept for the life of the caller, sent its chunks as
a range of indices over a socket pair. The count is the sum of the lanes'
integer chunk counts, so every output is the same bytes as a serial run. A
new lane may share the caller's CPU until the kernel moves it, so only a
large first call repays the fork; a process that has counted is taken to
count again. Other calls count serially, as do one CPU, other running Python
threads (fork is unsafe then) and platforms without ``sched_getaffinity``.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .analytic import pop_value
from .model import DerivedParams, SystemConfig, decode_terms

BLOCK = 16_384  # trials per slice of a chunk; its workspace stays in cache
MIN_PARALLEL_TRIALS = 500_000  # smallest call that shares out its chunks
MIN_FIRST_PARALLEL_TRIALS = 10_000_000  # the same for a process's first call


@dataclass(frozen=True)
class McConfig:
    """Trial budget, seed, and substream chunk size."""

    trials: int = 1_000_000
    seed: int = 12345
    chunk: int = 250_000

    def __post_init__(self):
        for name, low in (("trials", 1), ("seed", 0), ("chunk", 1)):
            value = getattr(self, name)
            if not hasattr(type(value), "__index__"):  # operator.index's test
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.trials > sys.maxsize:  # more chunks than len() can count
            raise ValueError(f"trials must be <= {sys.maxsize}, "
                             f"got {self.trials}")


@dataclass(frozen=True)
class McEstimate:
    """Empirical outage fraction with its binomial standard error."""

    pop_hat: float
    std_err: float  # sqrt(p_hat * (1 - p_hat) / trials)


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Deterministic substream for chunk `index` of a run seeded with `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed,
                                                        spawn_key=(index,)))


def sample_gains(rng: np.random.Generator, lambda1: float, lambda2: float,
                 size: int, rng2: np.random.Generator | None = None,
                 out: np.ndarray | None = None):
    """Two arrays of ``size`` exponential gains, means lambda1 and lambda2.

    Uses the inverse-CDF transform of uniform variates, applied in place.
    The u2 draws come from ``rng2``, or else follow the u1 draws in ``rng``.
    With ``out``, a (2, >= size) float array, the gains are written into its
    first ``size`` columns. No ordering between the two gains is imposed; the
    closed form models them as unordered independent exponentials and the
    estimator matches it.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("mean gains must be positive")
    u1, u2 = np.empty((2, size)) if out is None else out[:, :size]
    rng.random(out=u1)
    (rng if rng2 is None else rng2).random(out=u2)
    # the same bits as -lam * np.log1p(-u), without a temporary per step
    for u, lam in ((u1, lambda1), (u2, lambda2)):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.multiply(-lam, u, out=u)
    return u1, u2


def _count_chunks(d: DerivedParams, alpha: float, mc: McConfig, block: int,
                  chunks: Sequence[int]) -> int:
    """Successes over the chunk indices ``chunks``, in the order given.

    Chunk ``idx`` holds the trials from ``idx * mc.chunk`` on, at most
    ``mc.chunk`` of them, and draws its gains from ``chunk_rng(mc.seed,
    idx)``, so its count depends only on its own substream.
    """
    # each condition c * g / (k * g + 1 / rho_t) > pi, with its positive
    # denominator cleared: c * g > (pi * k) * g + pi / rho_t
    pis = (d.pi1, d.pi2)
    terms = [(user - 1, c, pis[message - 1] * k, pis[message - 1] / d.rho_t)
             for user, message, c, k in decode_terms(alpha, d.beta)]
    # rows: two gains, the signal and the right-hand side; the mask, scratch
    work, masks = np.empty((4, block)), np.empty((2, block), dtype=bool)
    successes = 0
    for idx in chunks:
        size = min(mc.chunk, mc.trials - idx * mc.chunk)
        rng, rng2 = chunk_rng(mc.seed, idx), None
        if size > block:  # else u2 follows u1 in rng, as in one whole draw
            rng2 = chunk_rng(mc.seed, idx)
            rng2.bit_generator.advance(size)  # one 64-bit output per double
        for lo in range(0, size, block):
            n = min(block, size - lo)
            w, (ok, cond) = work[:, :n], masks[:, :n]
            sample_gains(rng, d.lambda1, d.lambda2, size=n, rng2=rng2,
                         out=w[:2])
            signal, rhs = w[2], w[3]
            for i, (row, c, pi_k, pi_noise) in enumerate(terms):
                np.multiply(c, w[row], out=signal)
                np.multiply(pi_k, w[row], out=rhs)
                np.add(rhs, pi_noise, out=rhs)
                if i:
                    ok &= np.greater(signal, rhs, out=cond)
                else:
                    np.greater(signal, rhs, out=ok)
            successes += int(np.count_nonzero(ok))
    return successes


@dataclass(frozen=True)
class _Lane:
    """A lane's pid and the owner's end of its socket pair, as a file."""

    pid: int
    end: BinaryIO

    def send(self, job: tuple) -> None:
        try:
            pickle.dump(job, self.end)
            self.end.flush()
        except OSError as exc:
            raise ConnectionError(f"Monte Carlo lane {self.pid} exited") from exc

    def receive(self) -> tuple[bool, object]:
        try:
            return pickle.load(self.end)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise ConnectionError(f"Monte Carlo lane {self.pid} exited") from exc


_lanes: list[_Lane] = []  # lane processes 1, 2, ... of this process
_counted = False  # whether this process has called count_successes


def _serve(end) -> None:
    """Lane loop: count each job read from ``end`` and write back to it
    (True, count), or (False, the exception it raised)."""
    while True:
        try:
            job = pickle.load(end)
        except EOFError:  # the owner closed its end or exited
            return
        try:
            reply = (True, _count_chunks(*job))
        except Exception as exc:  # raised again in the caller
            reply = (False, exc)
        try:
            data = pickle.dumps(reply)
        except Exception:  # an exception that does not pickle
            data = pickle.dumps((False, RuntimeError(repr(reply[1]))))
        end.write(data)
        end.flush()


def _fork_lane() -> _Lane:
    """Fork one lane process serving `_serve` until its requests end."""
    import signal, socket  # loaded only by a process that starts lanes
    ours, theirs = socket.socketpair()
    # each process closes the end it does not use; ours lives on in its file
    with ours, theirs:
        for sock in (ours, theirs):  # block, whatever the default timeout
            sock.settimeout(None)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # Ctrl-C reaches the caller, which stops the lanes itself
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                ours.close()
                _serve(theirs.makefile("rwb"))
                code = 0
            finally:
                # never return into the owner's code, flush its stdio buffers
                # or run its exit handlers
                os._exit(code)
        return _Lane(pid, ours.makefile("rwb"))


def _forget_lanes() -> list[_Lane]:
    """Close this process's ends of the lanes and forget them; return them.

    Runs in every forked child, lane or not, so that a lane sees EOF once its
    owner's ends close, and so that the child's next call is its first.
    """
    global _lanes, _counted
    lanes, _lanes, _counted = _lanes, [], False
    for lane in lanes:
        with contextlib.suppress(OSError):  # unsent bytes, lane gone
            lane.end.close()
    return lanes


def _drop_lanes() -> None:
    """Kill, forget and reap the lanes. Runs at exit, and whenever a call
    fails: requests may be in flight, whose replies would otherwise pair
    with the next call's requests."""
    if _lanes:  # else exit would load signal for nothing
        import signal
        for lane in _lanes:
            with contextlib.suppress(ProcessLookupError):
                os.kill(lane.pid, signal.SIGKILL)
    for lane in _forget_lanes():
        with contextlib.suppress(ChildProcessError):
            os.waitpid(lane.pid, 0)


atexit.register(_drop_lanes)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lanes)


def _lanes_for(trials: int, n_chunks: int) -> list[_Lane]:
    """The lanes besides the caller that share a call's chunks: none where the
    module docstring says a call counts serially (lanes serve one call at a
    time, so not while other threads run), fewer if a fork fails."""
    least = MIN_PARALLEL_TRIALS if _counted else MIN_FIRST_PARALLEL_TRIALS
    if (trials < least or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return []
    wanted = min(len(os.sched_getaffinity(0)), n_chunks) - 1
    if wanted < 1:
        return []
    while len(_lanes) < wanted:
        try:
            _lanes.append(_fork_lane())
        except OSError:  # no process or socket left: use the lanes there are
            break
    return _lanes[:wanted]


def count_successes(config: SystemConfig, alpha: float, mc: McConfig) -> int:
    """Number of trials where all four decode conditions hold.

    Chunk `i` draws its gains from `chunk_rng(mc.seed, i)`, and each chunk's
    count depends only on its own substream. Of L lanes, lane ``i mod L``
    counts chunk `i` (see the module docstring); the total is the same.
    """
    global _counted
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    d = DerivedParams.from_config(config)
    block = min(BLOCK, mc.chunk, mc.trials)
    chunks = range(-(-mc.trials // mc.chunk))
    lanes = _lanes_for(mc.trials, len(chunks))
    n = len(lanes) + 1  # with no lanes, the caller counts every chunk
    try:
        for i, lane in enumerate(lanes, 1):
            lane.send((d, alpha, mc, block, chunks[i::n]))
        successes = _count_chunks(d, alpha, mc, block, chunks[::n])
        replies = [lane.receive() for lane in lanes]
    except BaseException:
        _drop_lanes()
        raise
    finally:  # after _drop_lanes: the next call starts fresh lanes
        _counted = True
    for ok, value in replies:
        if not ok:
            raise value
        successes += value
    return successes


def pop_estimate(config: SystemConfig, alpha: float,
                 mc: McConfig) -> McEstimate:
    """Empirical POP with its standard error."""
    successes = count_successes(config, alpha, mc)
    n = mc.trials
    p_hat = 1.0 - successes / n
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return McEstimate(pop_hat=p_hat, std_err=std_err)


@dataclass(frozen=True)
class ValidationRow:
    """One grid point of an analytic-vs-empirical comparison."""

    alpha: float
    analytic_pop: float
    mc_pop: float
    std_err: float
    z: float


def binomial_z(p_hat: float, p0: float, trials: int) -> float:
    """One-sample binomial z-score of p_hat against the reference p0.

    The error scale is the binomial standard error under the reference value,
    sqrt(p0 * (1 - p0) / n), which stays meaningful when the empirical
    fraction saturates at 0 or 1. A zero scale with a zero difference is 0;
    with a nonzero difference it is signed infinity.
    """
    diff = p_hat - p0
    scale = math.sqrt(max(p0, 0.0) * max(1.0 - p0, 0.0) / trials)
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return diff / scale


def point_seed(base_seed: int, index: int) -> int:
    """Derived seed for grid point `index`, independent across points."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def check_point(config: SystemConfig, alpha: float, analytic_pop: float,
                mc: McConfig) -> ValidationRow:
    """The MC estimate at one split, its standard error and its z against
    the closed-form ``analytic_pop``."""
    est = pop_estimate(config, alpha, mc)
    return ValidationRow(alpha=float(alpha), analytic_pop=analytic_pop,
                         mc_pop=est.pop_hat, std_err=est.std_err,
                         z=binomial_z(est.pop_hat, analytic_pop, mc.trials))


def validate(config: SystemConfig, alpha_grid: Sequence[float],
             mc: McConfig) -> list[ValidationRow]:
    """Compare the closed form `pop_value` with the estimator on a grid.

    Each grid point runs on its own substream derived from the base seed, so
    points are statistically independent yet the whole report is a pure
    function of (config, grid, mc). Callers flag disagreement via the z
    column; |z| > 4 at any point is the conventional failure condition.
    """
    if len(alpha_grid) == 0:
        raise ValueError("alpha_grid must be nonempty")
    derived = DerivedParams.from_config(config)
    return [check_point(config, alpha, pop_value(alpha, derived),
                        replace(mc, seed=point_seed(mc.seed, i)))
            for i, alpha in enumerate(alpha_grid)]
