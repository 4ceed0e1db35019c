"""The three benchmark workloads: what each runs, and how each job's
verdict and output digest are taken.

Nothing here imports ``spinhl`` at module level.  ``setup`` does the import,
so that the set-up time measured in a fresh interpreter includes it.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from collections import namedtuple
from fractions import Fraction
from time import perf_counter

DEFAULT_SEED = 7
WORKLOADS = ("sum_identities", "verify_all", "point_oracles")

# Job sizes.  "full" is the benchmark; "tiny" only exercises every code path
# quickly, for the benchmark's own test.
SIZES = {
    "full": {
        "series_checks": (("main1", 4, 0), ("main2", 3, 4)),  # (check, n, D), p = 1
        "verify_all": (3, 3),  # (n, D), p = 1
        "f_shapes": ((4, 4), (5, 3)),  # bounded_partitions(n, max_part)
        "robbins_n": 6,
        "schur_shape": (6, 3),  # bounded_partitions(n, max_part)
        "pfaffian_dim": 12,
        "lemma_shape": (4, 3),
        "point_checks_n": 5,
    },
    "tiny": {
        "series_checks": (("main1", 2, 1), ("main2", 2, 1)),
        "verify_all": (2, 1),
        "f_shapes": ((2, 2), (3, 1)),
        "robbins_n": 3,
        "schur_shape": (3, 2),
        "pfaffian_dim": 4,
        "lemma_shape": (2, 2),
        "point_checks_n": 2,
    },
}

JobResult = namedtuple("JobResult", "label seconds ok digest detail")


def _digest(payload):
    return hashlib.sha256(payload.encode()).hexdigest()


def _report_payload(rep):
    return json.dumps(rep.to_dict(), sort_keys=True)


def _timed(label, fn):
    """Run one job: fn returns (ok, payload, detail).  An exception is a
    failed job, reported by its type and message."""
    start = perf_counter()
    try:
        ok, payload, detail = fn()
    except Exception as exc:  # a raising job is counted as failed, not fatal
        return JobResult(label, perf_counter() - start, False, None, "%s: %s" % (type(exc).__name__, exc))
    return JobResult(label, perf_counter() - start, ok, _digest(payload), detail)


class Workload:
    """A workload after set-up: its sampled parameters, one closure per job,
    and how many threads its jobs keep busy."""

    def __init__(self, name, params, jobs=(), pass_fn=None, threads=1):
        self.name = name
        self.params = params
        self.jobs = list(jobs)
        self._pass_fn = pass_fn
        self.threads = threads
        self.jobs_per_pass = 1 if pass_fn is not None else len(self.jobs)

    def run_pass(self, between=lambda label: None):
        """One pass over the whole job list, in sequence.

        ``between`` is called with each job's label before the job starts,
        and with None after the last one.  Returns one list of job results
        per job (``verify_all`` runs one command that yields a result per
        check), and extra per-pass counts such as captured stdout bytes."""
        if self._pass_fn is not None:
            between(self.name)
            results, extras = self._pass_fn()
            between(None)
            return [results], extras
        groups = []
        for label, fn in self.jobs:
            between(label)
            groups.append([_timed(label, fn)])
        between(None)
        return groups, {}


# ----------------------------------------------------------------------
# sum_identities: the weighted partition sums on truncated series


def _setup_sum_identities(seed, size):
    import spinhl
    from spinhl.identities import series_parameters

    t, spin, gamma = series_parameters(seed, 1)
    params = {"p": 1, "t": str(t), "spin": [str(v) for v in spin.prefix + (spin.tail,)], "gamma": str(gamma)}

    def job(name, n, D):
        def fn():
            rep = spinhl.run_check(name, n=n, p=1, D=D, seed=seed)
            return rep.passed, _report_payload(rep), rep.status

        return "%s(n=%d,D=%d)" % (name, n, D), fn

    jobs = [job(name, n, D) for name, n, D in SIZES[size]["series_checks"]]
    return Workload("sum_identities", params, jobs)


# ----------------------------------------------------------------------
# verify_all: the `spinhl verify all` command, in process


def _setup_verify_all(seed, size):
    import spinhl  # noqa: F401  (part of the measured set-up)
    from spinhl import cli, identities

    cli.build_parser()
    n, D = SIZES[size]["verify_all"]
    argv = ["verify", "all", "--n", str(n), "--p", "1", "--D", str(D), "--seed", str(seed)]
    params = {"argv": argv}

    def run_pass():
        # run_all looks run_check up in the identities module, on the pool
        # threads too; a thin timer there gives each check its verdict and time.
        original = identities.run_check
        checks = []

        def timed_check(name, *args, **kwargs):
            start = perf_counter()
            rep = original(name, *args, **kwargs)
            gamma = kwargs.get("gamma")
            label = name if gamma is None else "%s@gamma=%s" % (name, gamma)
            checks.append(JobResult(label, perf_counter() - start, rep.passed, _digest(_report_payload(rep)), rep.status))
            return rep

        out = io.StringIO()
        identities.run_check = timed_check
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
            text = out.getvalue()
            stdout = JobResult("stdout", None, code == 0, _digest(text), "exit %d" % code)
        except Exception as exc:  # a raising command is a failed job
            text = out.getvalue()
            stdout = JobResult("stdout", None, False, None, "%s: %s" % (type(exc).__name__, exc))
        finally:
            identities.run_check = original
        checks.sort(key=lambda r: r.label)
        return checks + [stdout], {"cli.stdout_bytes": len(text.encode())}

    # the default --jobs is os.cpu_count(); run_all has 12 checks to spread
    threads = max(1, min(os.cpu_count() or 1, 12))
    return Workload("verify_all", params, pass_fn=run_pass, threads=threads)


# ----------------------------------------------------------------------
# point_oracles: two independent routes to the same scalar, no series


def _spin_poles(jmax):
    return [lambda pt: _prod(1 - pt.s(j) * ui for j in range(jmax + 1) for ui in pt.u)]


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _rats(values):
    return [str(Fraction(v)) for v in values]


def _setup_point_oracles(seed, size):
    import spinhl
    from spinhl.symfun import bounded_partitions, schur_bialternant, schur_gt

    sz = SIZES[size]
    jobs = []
    params = {}

    for n, max_part in sz["f_shapes"]:
        point = spinhl.sample_point(seed, n, p=1, pole_list=_spin_poles(max_part))
        shapes = bounded_partitions(n, max_part)
        params["f_point_n%d" % n] = {"t": str(point.t), "u": _rats(point.u)}

        def f_job(point=point, shapes=shapes):
            sym = [spinhl.f_lambda(lam, point) for lam in shapes]
            ver = [spinhl.f_lambda_vertex(lam, point) for lam in shapes]
            return sym == ver, json.dumps(_rats(sym)), "%d shapes" % len(shapes)

        jobs.append(("f_lambda_vs_vertex(n=%d,max=%d)" % (n, max_part), f_job))

    k = sz["robbins_n"]
    rpt = spinhl.sample_point(seed, k, p=0)
    bottom = tuple(range(1, k + 1))
    x, (u, v, w) = rpt.u, (rpt.t, rpt.gamma, rpt.spin.tail)
    params["robbins"] = {"x": _rats(x), "uvw": _rats((u, v, w))}

    def robbins_job():
        enum = spinhl.robbins_star_enum(bottom, x, u, v, w)
        bialt = spinhl.robbins_star_bialternant(bottom, x, u, v, w)
        return enum == bialt, json.dumps(_rats((enum,))), "bottom 1..%d" % k

    jobs.append(("robbins_enum_vs_bialternant(1..%d)" % k, robbins_job))

    sn, smax = sz["schur_shape"]
    xs = spinhl.sample_point(seed, sn, p=0).u
    sshapes = bounded_partitions(sn, smax)
    params["schur_x"] = _rats(xs)

    def schur_job():
        patterns = [schur_gt(lam, xs) for lam in sshapes]
        alternants = [schur_bialternant(lam, xs) for lam in sshapes]
        return patterns == alternants, json.dumps(_rats(patterns)), "%d shapes" % len(sshapes)

    jobs.append(("schur_patterns_vs_bialternant(n=%d,max=%d)" % (sn, smax), schur_job))

    dim = sz["pfaffian_dim"]
    rng = random.Random(seed)
    skew = spinhl.SkewMatrix.from_function(
        tuple(range(1, dim + 1)), lambda a, b: Fraction(rng.randint(-30, 30), rng.randint(1, 15))
    )

    def pfaffian_job():
        laplace = skew.pfaffian()
        matchings = skew.pfaffian_matchings()
        return laplace == matchings, json.dumps(_rats((laplace,))), "%dx%d" % (dim, dim)

    jobs.append(("pfaffian_laplace_vs_matchings(%d)" % dim, pfaffian_job))

    ln, lmax = sz["lemma_shape"]
    lpt = spinhl.sample_point(
        seed,
        ln,
        p=0,
        pole_list=[
            lambda pt: _prod(1 - x / pt.t for x in pt.u),
            lambda pt: _prod(1 - pt.q + (pt.t - 1 / pt.t) * x for x in pt.u),
        ],
    )
    lshapes = bounded_partitions(ln, lmax)
    params["lemma_point"] = {"t": str(lpt.t), "x": _rats(lpt.u)}

    def lemma_job():
        verdicts = [spinhl.verify_lemma_connection(lam, lpt.t, lpt.u) for lam in lshapes]
        return all(verdicts), json.dumps(verdicts), "%d shapes" % len(lshapes)

    jobs.append(("lemma_connection(n=%d,max=%d)" % (ln, lmax), lemma_job))

    pn = sz["point_checks_n"]
    for name in ("lemma1", "lemma2", "chain"):

        def check_job(name=name):
            rep = spinhl.run_check(name, n=pn, p=1, seed=seed)
            return rep.passed, _report_payload(rep), rep.status

        jobs.append(("%s(n=%d)" % (name, pn), check_job))

    return Workload("point_oracles", params, jobs)


_SETUP = {
    "sum_identities": _setup_sum_identities,
    "verify_all": _setup_verify_all,
    "point_oracles": _setup_point_oracles,
}


def setup(name, seed, size="full"):
    """Import spinhl and sample the workload's inputs from ``seed``."""
    return _SETUP[name](seed, size)
