"""Monte Carlo estimation of the pair outage probability.

Draws independent exponential channel gains for both users, applies the four
decode conditions at SINR level, and counts the trials where any condition
fails. Trials are split into fixed-size chunks, each driven by its own
deterministically derived substream, so the aggregate count depends only on
(seed, chunk size, trial count) and never on scheduling or worker count.
A chunk's substream holds all its u1 draws, then all its u2 draws. The chunk
reads both halves block by block, u2 from a second copy of the substream
advanced past the u1 half, so BLOCK trials at a time are drawn, turned into
SINRs and counted in one workspace that stays in cache and is allocated once
per call. A chunk that fits in one block draws both halves from the one
generator, u2 right after u1: the same bits, without the second copy. The
decode conditions are elementwise, so the count does not depend on BLOCK.

On Linux a call of at least MIN_PARALLEL_TRIALS trials and two or more
chunks also uses the other CPUs the process may run on (L of them in all,
from ``os.sched_getaffinity``). Chunk ``i`` of the call goes to lane
``i mod L``: lane 0 is the caller, and each other lane is a process forked
once, on first use, and kept for the life of the caller. Requests and
replies are pickled over a pipe pair per lane. The call's count is the sum
of the lanes' integer chunk counts, which does not depend on how chunks are
dealt, so every output is the same bytes as a serial run. Forking costs
about 4 ms a lane, the time half of 320,000 trials take at 25 ns each, so
MIN_PARALLEL_TRIALS (500,000) is the size above which one call repays the
lanes it starts, even in a fresh process. There is no option: a call under
the threshold, a single chunk, one CPU, a process running other Python
threads (where fork is unsafe) and platforms without
``os.sched_getaffinity`` all count serially.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import pickle
import threading
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .analytic import pop_value
from .model import DerivedParams, SystemConfig, sinrs

BLOCK = 16_384  # trials per SINR slice; its temporaries stay in cache
MIN_PARALLEL_TRIALS = 500_000  # one-shot break-even of forking the lanes


@dataclass(frozen=True)
class McConfig:
    """Trial budget, seed, and substream chunk size."""

    trials: int = 1_000_000
    seed: int = 12345
    chunk: int = 250_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")


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


def _chunk_sizes(trials: int, chunk: int) -> list[int]:
    full, rem = divmod(trials, chunk)
    return [chunk] * full + ([rem] if rem else [])


def _count_chunks(d: DerivedParams, alpha: float, seed: int, block: int,
                  chunks: Sequence[tuple[int, int]]) -> int:
    """Successes over ``chunks``, (index, size) pairs, in the order given.

    Chunk ``index`` draws its gains from ``chunk_rng(seed, index)``, so its
    count depends only on its own substream.
    """
    # rows: two gains, four SINRs, the SINR denominator; the mask and scratch
    work, masks = np.empty((7, block)), np.empty((2, block), dtype=bool)
    successes = 0
    for idx, size in chunks:
        rng, rng2 = chunk_rng(seed, idx), None
        if size > block:  # else u2 follows u1 in rng, as in one whole draw
            rng2 = chunk_rng(seed, idx)
            rng2.bit_generator.advance(size)  # one 64-bit output per double
        for lo in range(0, size, block):
            n = min(block, size - lo)
            w, (ok, cond) = work[:, :n], masks[:, :n]
            g1, g2 = sample_gains(rng, d.lambda1, d.lambda2, size=n,
                                  rng2=rng2, out=w[:2])
            s = sinrs(alpha, g1, g2, d.beta, d.rho_t, out=w[2:])
            np.greater(s.gamma11, d.pi1, out=ok)
            for gamma, pi in ((s.gamma21, d.pi2), (s.gamma12, d.pi1),
                              (s.gamma22, d.pi2)):
                ok &= np.greater(gamma, pi, out=cond)
            successes += int(np.count_nonzero(ok))
    return successes


@dataclass(frozen=True)
class _Lane:
    """A lane process: its pid, the write end of its request pipe and the
    read end of its reply pipe."""

    pid: int
    requests: BinaryIO
    replies: BinaryIO

    def send(self, job: tuple) -> None:
        try:
            pickle.dump(job, self.requests)
            self.requests.flush()
        except OSError as exc:
            raise RuntimeError(f"Monte Carlo lane {self.pid} exited") from exc

    def receive(self) -> tuple[bool, object]:
        try:
            return pickle.load(self.replies)
        except (EOFError, OSError, pickle.UnpicklingError) as exc:
            raise RuntimeError(f"Monte Carlo lane {self.pid} exited") from exc


_lanes: list[_Lane] = []  # lane processes 1, 2, ... of the process `_owner`
_owner = 0  # pid whose exit handler stops `_lanes`; other pids inherited them


def _serve(requests, replies) -> None:
    """Lane loop: count each job read from ``requests`` and write back
    (True, count), or (False, the exception it raised)."""
    while True:
        try:
            job = pickle.load(requests)
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
        replies.write(data)
        replies.flush()


def _fork_lane(siblings: Sequence[_Lane]) -> _Lane:
    """Fork one lane process serving `_serve` until its requests end."""
    import signal  # loaded only by a process that starts lanes
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    req_r, req_w, rep_r, rep_w = fds
    if pid == 0:
        code = 1
        try:
            # Ctrl-C reaches the caller, which stops the lanes itself
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(req_w)
            os.close(rep_r)
            # so that each sibling sees EOF once the owner's ends close
            for lane in siblings:
                lane.requests.close()
                lane.replies.close()
            with open(req_r, "rb") as requests, open(rep_w, "wb") as replies:
                _serve(requests, replies)
            code = 0
        finally:
            # never return into the owner's code, flush its stdio buffers or
            # run its exit handlers
            os._exit(code)
    os.close(req_r)
    os.close(rep_w)
    return _Lane(pid, open(req_w, "wb"), open(rep_r, "rb"))


def _drop_lanes() -> None:
    """Kill and reap this process's lanes; forget lanes inherited by fork.

    Runs at exit, and whenever a call fails with requests in flight, whose
    replies would otherwise pair with the next call's requests.
    """
    import signal
    global _lanes
    lanes, _lanes = _lanes, []
    own = _owner == os.getpid()
    for lane in lanes:
        if own:
            with contextlib.suppress(ProcessLookupError):
                os.kill(lane.pid, signal.SIGKILL)
        for end in (lane.requests, lane.replies):
            with contextlib.suppress(OSError):  # unsent bytes, lane gone
                end.close()
        if own:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(lane.pid, 0)


def _lanes_for(trials: int, n_chunks: int) -> list[_Lane]:
    """The lanes, besides the caller, that share a call's chunks: none below
    MIN_PARALLEL_TRIALS, for one chunk, on one CPU, while other Python
    threads run (fork is unsafe then, and the lanes serve one call at a
    time) or without ``os.sched_getaffinity``. A lane that cannot be forked
    is left out."""
    global _owner
    if (trials < MIN_PARALLEL_TRIALS or n_chunks < 2
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return []
    wanted = min(len(os.sched_getaffinity(0)), n_chunks) - 1
    if wanted < 1:
        return []
    if _owner != os.getpid():  # a forked child starts lanes of its own
        _drop_lanes()
        atexit.register(_drop_lanes)
        _owner = os.getpid()
    while len(_lanes) < wanted:
        try:
            _lanes.append(_fork_lane(_lanes))
        except OSError:  # no process or pipe to spare: use the lanes there are
            break
    return _lanes[:wanted]


def count_successes(config: SystemConfig, alpha: float, mc: McConfig) -> int:
    """Number of trials where all four decode conditions hold.

    Chunk `i` draws its gains from `chunk_rng(mc.seed, i)`, and each chunk's
    count depends only on its own substream. Of L lanes, lane ``i mod L``
    counts chunk `i` (see the module docstring); the total is the same.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    d = DerivedParams.from_config(config)
    block = min(BLOCK, mc.chunk, mc.trials)
    chunks = list(enumerate(_chunk_sizes(mc.trials, mc.chunk)))
    lanes = _lanes_for(mc.trials, len(chunks))
    if not lanes:
        return _count_chunks(d, alpha, mc.seed, block, chunks)
    n = len(lanes) + 1
    try:
        for i, lane in enumerate(lanes, 1):
            lane.send((d, alpha, mc.seed, block, chunks[i::n]))
        successes = _count_chunks(d, alpha, mc.seed, block, chunks[::n])
        replies = [lane.receive() for lane in lanes]
    except BaseException:
        _drop_lanes()
        raise
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
