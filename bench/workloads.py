"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Each workload is a fixed batch of inputs made from the seed alone.  A run
repeats whole passes over the batch, so every run attempts the same mix.
``order`` sorts a batch so that every sixteenth input, the warm-up, has the
same cost profile whatever the seed.

Costs inside a batch differ by orders of magnitude (a witness near rank 600
costs hundreds of times one at rank 8), so the costly dimensions are laid
out on a fixed grid and the seed only moves inputs within their cell: one
witness per (log-rank stratum, c1 sixth), each census degree once per
format.  Two seeds then give different inputs with the same cost profile,
which keeps run-to-run spread down to the machine's own noise.

``op`` is the only code that runs inside the timer.  ``check`` turns the
program's result into plain data and hands it to ``checks``, which never
calls the program.
"""

from __future__ import annotations

import contextlib
import io

import checks

# The rank-2 box of cli_mix's classify2 calls and of the checker's brute-force
# table: twists |t| <= 20 of S_L, S_C, S_E and split pairs |a|, |b| <= 20.
R2_T = 20
R2_C1 = 2 * R2_T + 1
R2_C2 = (-5 * R2_T * R2_T, 5 * R2_T * (R2_T + 1) + 2)


class WitnessLadder:
    name = "witness_ladder"
    size = 240
    small = 60  # r <= 7: census-table lookup
    per_rank = 6  # witnesses per log-rank stratum, spread over c1 and d
    order = staticmethod(lambda q: (q[1], q[0], q[2]))  # by rank
    # Well below the recursion limit of the peeling witness.  Run for run,
    # a ladder to 1200 had witnesses of up to ~50 ms and ~45 passes in 56 s,
    # and its figures spread about twice as much as this one's (up to
    # ~12 ms, ~125 passes): the fastest of fewer, longer repeats catches
    # the host's quiet moments less often.
    r_max = 600

    def make_inputs(self, rng):
        out = []
        for _ in range(self.small):
            d = rng.choice((3, 4, 5))
            r = rng.randint(3, 7)
            out.append((d, r, rng.randint(checks.ceil_div(r, d), r)))
        # Cost grows like r^2 and varies ~2.5x with c1 at fixed r, so each
        # log-rank stratum holds one witness at each sixth of the c1 range,
        # and r stays near the stratum's middle: the seed moves r within
        # the middle tenth of the stratum and picks the degrees.
        n_r = (self.size - self.small) // self.per_rank
        offset = rng.randrange(3)
        for i in range(n_r):
            for j in range(self.per_rank):
                u = (i + 0.45 + rng.random() / 10) / n_r
                r = round(8 * (self.r_max / 8) ** u)
                d = (3, 4, 5)[(i + j + offset) % 3]
                lo = checks.ceil_div(r, d)
                out.append((d, r, lo + int((j + 0.5) / self.per_rank * (r - lo + 1))))
        rng.shuffle(out)
        return out

    def setup(self, fano):
        return {d: fano.FanoThreefold(d) for d in (3, 4, 5)}, fano

    def op(self, ctx, inp):
        X, fano = ctx
        d, r, c1 = inp
        dec = fano.witness(X[d], r, c1)
        return dec, fano.validate_witness(X[d], dec, r, c1)

    def checker(self):
        return None

    def check(self, _, inp, out):
        d, r, c1 = inp
        dec, report = out
        blocks = [(b.family.name, b.twist) for b in dec.blocks]
        problems = checks.check_witness(d, r, c1, blocks)
        if not report.ok:
            problems.append(f"validate_witness rejects a correct witness: {report}")
        return problems


FORMATS = ("human", "json", "csv")


class CliMix:
    name = "cli_mix"
    sets = 3  # a pass runs every subcommand sets x formats times
    order = staticmethod(lambda call: (call["cmd"], call["fmt"], call["argv"]))

    def make_inputs(self, rng):
        """One pass: every subcommand in every format, plus two refusals.
        Census and per-d verify-table cost grows with d, so each format
        gets each degree once for them."""
        calls = []
        for k in range(self.sets):
            for j, fmt in enumerate(FORMATS):
                _add_set(rng, calls, fmt, (3, 4, 5)[(j + k) % 3])
        # invalid input exits 1: a rank above the oracle bound, a rank below 3
        d = rng.choice((3, 4, 5))
        _add(calls, "oracle", "human", d=d, rank=13, c1=5, bound=12)
        _add(calls, "admissible", "json", d=d, rank=2, relaxed=False)
        rng.shuffle(calls)
        return calls

    def setup(self, fano):
        from fano_acm import cli

        return cli

    def op(self, cli, call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(call["argv"])
        return code, out.getvalue(), err.getvalue()

    def checker(self):
        return checks.Rank2Table(R2_C1, *R2_C2)

    def check(self, table, call, out):
        return checks.check_cli(call, table, *out)

    @staticmethod
    def stdout_bytes(out):
        return len(out[1].encode())


def _add(calls, cmd, fmt, **params):
    argv = [cmd]
    for key, value in params.items():
        if value is True:
            argv.append("--" + key.replace("_", "-"))
        elif value is not None and value is not False:
            argv += ["--" + key.replace("_", "-"), str(value)]
    calls.append({"cmd": cmd, "fmt": fmt, "argv": argv + ["--format", fmt], **params})


def _chern(rng):
    r = rng.randint(1, 4)
    return (r, rng.randint(-6, 6), rng.randint(-20, 20) if r > 1 else 0,
            rng.randint(-20, 20) if r > 2 else 0)


def _add_set(rng, calls, fmt, d_cost):
    """Every subcommand once in one format; census and per-d verify-table on
    V_{d_cost}."""
    for cmd, flag in (("chi", "--twist"), ("twist", "--t")):
        d, c, t = rng.choice((3, 4, 5)), _chern(rng), rng.randint(-5, 5)
        calls.append({"cmd": cmd, "fmt": fmt, "d": d, "chern": c, "t": t,
                      "argv": _chern_argv(cmd, d, c, fmt) + [flag, str(t)]})
    for hit in (True, True, False):  # a miss exits 2
        d = rng.choice((3, 4, 5))
        if hit:
            fam = rng.choice(checks.MODEL_FAMILIES)
            c = checks.twist(checks.block_base(fam, d), d, rng.randint(-R2_T, R2_T))
            c1, c2 = c[1], c[2]
        else:
            c1, c2 = rng.randint(-R2_C1, R2_C1), rng.randint(*R2_C2)
        _add(calls, "classify2", fmt, d=d, c1=c1, c2=c2)
    d, r = rng.choice((3, 4, 5)), rng.randint(3, 40)
    _add(calls, "admissible", fmt, d=d, rank=r, relaxed=rng.random() < 0.5)
    d, r = rng.choice((3, 4, 5)), rng.randint(8, 120)
    _add(calls, "witness", fmt, d=d, rank=r, c1=rng.randint(checks.ceil_div(r, d), r))
    d, r = rng.choice((3, 4, 5)), rng.randint(8, 120)  # c1 > r exits 2
    _add(calls, "witness", fmt, d=d, rank=r, c1=r + rng.randint(1, 5))
    _add(calls, "census", fmt, d=d_cost, max_rank=rng.randint(38, 42),
         relaxed=rng.random() < 0.5)
    _add(calls, "verify-table", fmt, d=None)
    _add(calls, "verify-table", fmt, d=d_cost)
    d, r = rng.choice((3, 4, 5)), rng.randint(8, 14)
    _add(calls, "oracle", fmt, d=d, rank=r, c1=rng.randint(checks.ceil_div(r, d), r),
         bound=14)


def _chern_argv(cmd, d, c, fmt):
    r, c1, c2, c3 = c
    return [cmd, "--d", str(d), "--rank", str(r), "--c1", str(c1), "--c2", str(c2),
            "--c3", str(c3), "--format", fmt]


WORKLOADS = {w.name: w for w in (WitnessLadder(), CliMix())}
