"""Reference kernels that measure the host's speed during a run.

The benchmark was tuned on a shared two-vCPU KVM guest whose speed drifts:
the same code runs up to twice as slow for seconds to minutes at a time, in
CPU time as much as in wall time.  A run's raw times follow that drift more
than they follow the program.  So the benchmark runs fixed kernels of its
own in bursts, one before the first case and one after each case, and
scales each case's time by how fast the kernels ran in the two bursts on
either side of it: if a sample took ``r`` seconds on average there, a case
that took ``t`` seconds reports ``t * NOMINAL_S / r``, its time on a host
where the kernels take their nominal time.  The kernels share no code with
``gaugepf``, so a change to the program cannot move them.

Each case gets its own factor, and not one mean factor for the whole run,
because a run's cases need not all run in the same stretch.  In
``contract_matching`` the median case is one of eight short models that run
before and after the 19-second K_{4,4} sequence.  Over the same ten runs,
its time spread 0.271 (IQR over median) uncalibrated, 0.194 scaled by one
factor for the whole run and 0.067 scaled by its own.

There are two kernels, because the drift does not slow every kind of code
alike (in the tuning runs, small numpy calls in a Python loop slowed by 75%
in a stretch where plain Python slowed by 40%):

* ``small_tables``: a Python loop of numpy reductions over a 4-slot table
  and scalar updates, the kind of work the solver and the loop series do.
* ``large_arrays``: vectorised products and sums over 2^16-entry arrays,
  the kind of work brute force and the large contracted tables do.

Each workload names the kernels that resemble its own work; a calibration
sample is one run of each named kernel, back to back.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# a burst after a case runs kernel samples until their time adds up to
# this share of the case's time (at least one sample)
SHARE = 0.15
# the burst before the first case lasts at least this long, in seconds
FIRST_BURST_S = 0.5
# each kernel's time on the tuning host in a typical stretch, in seconds
NOMINAL_S = {"small_tables": 0.020, "large_arrays": 0.020}

_TABLE = np.random.default_rng(0).random(16).reshape((2,) * 4)
_ARRAY = np.random.default_rng(1).random(1 << 16)


def small_tables() -> float:
    x = [1.0 + 0.1 * i for i in range(4)]
    total = 0.0
    for _ in range(600):
        for k in range(4):
            marginal = np.moveaxis(_TABLE, k, 0).reshape(2, -1).sum(axis=1)
            a, b = float(marginal[0]), float(marginal[1])
            x[k] = min(max(0.5 * x[k] + 0.5 * b / (a + 1e-12), 1e-18), 1e18)
            total += x[k]
    return total


def large_arrays() -> float:
    total = 0.0
    for _ in range(60):
        total += float(np.prod(_ARRAY.reshape(-1, 4), axis=1).sum())
    return total


KERNELS = {"small_tables": small_tables, "large_arrays": large_arrays}


class Calibration:
    """Calibration samples of one run, for one set of kernels.

    ``bursts[i]`` is the mean sample time of the burst just before case
    ``i`` of the run, which is also the burst just after case ``i - 1``.
    """

    def __init__(self, kernels: tuple) -> None:
        self.kernels = [KERNELS[k] for k in kernels]
        self.nominal_s = sum(NOMINAL_S[k] for k in kernels)
        self.samples: list[float] = []
        self.bursts: list[float] = []
        for kernel in self.kernels:  # warm-up, not kept
            kernel()

    def sample(self) -> float:
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def burst(self, seconds: float) -> None:
        """Samples until they add up to ``seconds`` (at least one)."""
        taken = [self.sample()]
        while sum(taken) < seconds:
            taken.append(self.sample())
        self.bursts.append(statistics.fmean(taken))

    def after_case(self, case_s: float) -> None:
        self.burst(SHARE * case_s)

    def factor(self) -> float:
        """Nominal over the mean of all samples: below 1 when slow."""
        return self.nominal_s / statistics.fmean(self.samples)

    def case_factor(self, i: int) -> float:
        """The factor of case ``i``, from the bursts on either side of it."""
        return self.nominal_s / ((self.bursts[i] + self.bursts[i + 1]) / 2)
