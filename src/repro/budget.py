"""Work budgets for exponential compilation steps.

Full mapping compilation is exponential in the worst case (Section 1.1);
the paper's own Figure 4 points run for up to ~10⁵ seconds.  Benchmarks on
a laptop need censored measurements instead of unbounded runs, so every
potentially-exponential loop in the compilers accepts an optional
:class:`WorkBudget` and calls :meth:`WorkBudget.tick` once per unit of
work.  Exceeding the budget raises :class:`CompilationBudgetExceeded`,
which the bench harness records as a budget-exceeded point.

One budget may be shared by several threads of a serving process, so
step accounting is atomic: a lock serialises the increment, and the
budget trips no earlier than the tick that actually crosses
``max_steps`` — no steps are lost under concurrent ticking.  Parallel
validation (:mod:`repro.compiler.scheduler`) runs checks in worker
processes, which cannot tick the caller's budget; the parent replays
their reported step counts into it with bulk ``tick(steps)`` calls.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import CompilationBudgetExceeded


class WorkBudget:
    """A step and wall-clock budget shared across one compilation.

    Thread-safe: concurrent :meth:`tick` calls are serialised on a lock, so ``steps`` never undercounts and the budget
    trips exactly when the accumulated total first exceeds ``max_steps``.
    """

    def __init__(
        self,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.steps = 0
        self._started = time.perf_counter()
        self._lock = threading.Lock()
        # Checking the clock on every tick would dominate tight loops;
        # check every _CLOCK_STRIDE ticks instead.
        self._clock_stride = 4096

    def tick(self, steps: int = 1) -> None:
        with self._lock:
            self.steps += steps
            total = self.steps
        if self.max_steps is not None and total > self.max_steps:
            raise CompilationBudgetExceeded(
                f"work budget exceeded: {total} > {self.max_steps} steps",
                elapsed=self.elapsed,
            )
        if self.max_seconds is not None and total % self._clock_stride < steps:
            if self.elapsed > self.max_seconds:
                raise CompilationBudgetExceeded(
                    f"time budget exceeded: {self.elapsed:.1f}s > {self.max_seconds}s",
                    elapsed=self.elapsed,
                )

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._started


class UnlimitedBudget(WorkBudget):
    """A budget that never trips; the default."""

    def __init__(self) -> None:
        super().__init__(max_steps=None, max_seconds=None)

    def tick(self, steps: int = 1) -> None:
        with self._lock:
            self.steps += steps


def ensure_budget(budget: Optional[WorkBudget]) -> WorkBudget:
    return budget if budget is not None else UnlimitedBudget()
