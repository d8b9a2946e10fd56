"""Chaos injection for the campaign runner: kill, delay, corrupt.

The campaign runner's recovery paths (worker-death detection, per-cell
watchdogs, result-spill validation, retry/degradation) are only
trustworthy if something exercises them on purpose. A
:class:`ChaosConfig` is a seeded, deterministic plan of misbehavior
shipped to every worker:

* **worker kills** — the worker SIGKILLs itself at the start of every
  ``kill_every``-th cell (by sweep index), modeling a pool worker dying
  mid-cell with no exception, no cleanup, and no result;
* **per-cell delays** — the worker sleeps before running every
  ``delay_every``-th cell (with seeded jitter), modeling stragglers and
  hung cells for the watchdog to reap;
* **spill corruption** — the worker truncates and garbles its own
  committed result spill for every ``corrupt_every``-th cell, modeling
  a torn or bit-rotten handoff file the parent must reject and retry.

Every decision is a pure function of ``(seed, cell index, attempt)`` —
no global RNG, no wall clock — so a chaos campaign is reproducible and
its injected failures land on the same cells at any ``jobs``
count. By default each misbehavior fires only on attempt 1
(``attempts=1``), so retried cells succeed and the campaign's merged
output stays byte-identical to an undisturbed run; raise ``attempts``
to exhaust the retry budget and exercise degradation instead.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChaosConfig:
    """A deterministic plan of injected failures (picklable, frozen).

    Periods are by 0-based sweep index: ``kill_every=3`` kills the
    workers of cells 2, 5, 8, ... ``0`` disables that misbehavior.
    ``attempts`` caps how many attempts of an afflicted cell misbehave
    (1 = first attempt only, so one retry always recovers).
    """

    seed: int = 0
    kill_every: int = 0
    delay_every: int = 0
    delay_seconds: float = 0.0
    corrupt_every: int = 0
    attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_every", "delay_every", "corrupt_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    @property
    def active(self) -> bool:
        return bool(self.kill_every or self.delay_every or self.corrupt_every)

    # -- the deterministic plan ------------------------------------------

    def _hits(self, period: int, index: int, attempt: int) -> bool:
        if period <= 0 or attempt > self.attempts:
            return False
        return index % period == period - 1

    def should_kill(self, index: int, attempt: int) -> bool:
        """Whether the worker for cell ``index`` self-SIGKILLs."""
        return self._hits(self.kill_every, index, attempt)

    def should_corrupt(self, index: int, attempt: int) -> bool:
        """Whether the worker corrupts its committed result spill."""
        return self._hits(self.corrupt_every, index, attempt)

    def delay(self, index: int, attempt: int) -> float:
        """Seconds the worker sleeps before running cell ``index``
        (seeded jitter in [1x, 2x] so stragglers don't march in step)."""
        if not self._hits(self.delay_every, index, attempt):
            return 0.0
        rng = random.Random(repr((self.seed, index, attempt)))
        return self.delay_seconds * (1.0 + rng.random())


class ChaosController:
    """Applies a :class:`ChaosConfig` inside a campaign worker.

    Constructed in the child process (the config crosses the fork as
    plain data); the parent never sleeps, kills, or corrupts anything
    itself — all chaos is worker-side, exactly like real failures.
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config

    def before_cell(self, index: int, attempt: int) -> None:
        """Inject pre-run chaos: straggler delay, then sudden death."""
        delay = self.config.delay(index, attempt)
        if delay > 0:
            time.sleep(delay)
        if self.config.should_kill(index, attempt):
            # SIGKILL leaves no traceback, no result file, and a
            # negative exitcode — precisely the failure mode the
            # campaign's worker supervision must survive.
            os.kill(os.getpid(), signal.SIGKILL)

    def after_spill(self, index: int, attempt: int, result_path: str) -> None:
        """Corrupt the committed result spill (torn-file model)."""
        if not self.config.should_corrupt(index, attempt):
            return
        corrupt_file(result_path, seed=(self.config.seed, index, attempt))


def corrupt_file(path: str | os.PathLike[str], seed: object = 0) -> None:
    """Deterministically damage a file: truncate to half and overwrite
    the tail with seeded garbage — an unpicklable, unparseable stump."""
    rng = random.Random(repr(seed))
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    keep = size // 2
    garbage = bytes(rng.getrandbits(8) for _ in range(16))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
        fh.seek(max(keep - len(garbage), 0))
        fh.write(garbage)
