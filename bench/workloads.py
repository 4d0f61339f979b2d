"""The benchmark's workloads: one fixed-size CLI invocation each.

Each workload is run as ``python -m rearrange_lab <argv> --seed <s>``.
The sizes keep one invocation between one and four seconds on an idle
2-core machine, so a run holds a dozen or more invocations.  The search
runs on one thread: on two cores its two pool threads contend for the
GIL, which made an invocation about 1.4x slower and its wall time about
twice as variable as on one thread.  The search climb
runs for exactly ``iters`` iterations per restart only while ``iters``
stays below 432 (36 step halvings of 12 stalled moves each), which keeps
its unit count exact.
"""

from __future__ import annotations

from dataclasses import dataclass

#: CLI seeds are taken modulo this; bench/pins.json holds the report
#: hash of every workload for each of them.
PINNED_SEEDS = 32

LORENTZ_ASSOCIATE = (
    '{"kind":"associate","base":{"kind":"lorentz",'
    '"phi":[["0","0"],["1/2","3/4"],["1","1"]]}}'
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple          # CLI arguments without --seed
    units: int           # trials (verify) or iterations x restarts (search)

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def cli_argv(self, cli_seed: int) -> list:
        return [*self.argv, "--seed", str(cli_seed)]


def _verify(name, why, *flags):
    trials = int(flags[flags.index("--trials") + 1])
    return Workload(name, why, ("verify", *flags), trials)


def _search(name, why, *flags):
    iters = int(flags[flags.index("--iters") + 1])
    restarts = int(flags[flags.index("--restarts") + 1])
    return Workload(name, why, ("search", *flags), iters * restarts)


WORKLOADS = {w.name: w for w in (
    _verify(
        "thm32-exact-64",
        "the headline thm32 bound in exact Fraction arithmetic at 64 atoms: "
        "bilinear_form, decreasing_rearrangement and instance generation",
        "--suite", "thm32", "--mode", "exact", "--atoms", "64",
        "--trials", "384",
    ),
    _verify(
        "thm43-lorentz-float",
        "the float and r.i.-norm path: Lorentz associate and the scipy "
        "second-associate LP; exact Fraction kernels stay off",
        "--suite", "thm43", "--mode", "float", "--atoms", "8",
        "--trials", "80", "--norm", LORENTZ_ASSOCIATE,
    ),
    _search(
        "search-thm43-1t",
        "thousands of tiny float Lp norms and centerings in the extremal "
        "search, on one thread; its trace times the 2-thread pool",
        "--target", "thm43-ratio", "--atoms", "6", "--restarts", "4",
        "--iters", "100", "--threads", "1",
    ),
)}
