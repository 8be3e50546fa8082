"""The benchmark's three workloads.

Each workload turns a seed into a list of ops, sets up, and then runs
whole passes over the ops from a single client, one op at a time (a
closed loop: the next op starts when the previous one has returned).
Every op is checked against its known answer; an op that raised,
exited non-zero or answered otherwise counts as failed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from cli_child import SPEED_PREFIX
from speed import NOMINAL_S, Sampler, at_own_speed
from tracer import SPAN, Tracer, merge_summaries

CHILD = Path(__file__).resolve().parent / "cli_child.py"

# cold-verify rungs: odd n, n = 0 (mod 4) and n = 2 (mod 4); the top rung
# is the large-n target
LADDER = (9, 12, 14, 25)
COLD_D = (2, 8)
COLD_SETUP_REPEATS = 21
COLD_TIMEOUT_S = 150

WARM_NS = (9, 14, 16)
FAMILY_D = (2, 48)
JITTER = 2
# ops per n and pass.  Finite degrees come from a jittered grid over
# FAMILY_D, so every seed spreads its work over the same range.  A
# mutated cover of even degree d >= 4 is connected and fails on its
# subcertificates; one of odd degree is disconnected and fails at once,
# so the two are drawn apart.
FAMILY_MIX = {"standard": 5, "mutated-even": 4, "mutated-odd": 1, "infinite": 2, "quotient": 1}

# kind -> (the verdict revalidate must return, ops per n and pass); the
# last kind is a tampered payload.  Genuine passes are the common case
# and the slow one (they reach the Index check); the other kinds stop at
# their first failing subcertificate.  With two thirds of the ops slow,
# the median and p75 lie inside one mode of the op times.  Ops take tens
# of milliseconds, so a pass repeats each text many times and measures
# for about five seconds.
REVALIDATE_KINDS = {
    "genuine-pass": ("pass", 32),
    "genuine-fail": ("fail", 8),
    "twist-edited": ("fail", 8),
}
# A tampered payload that revalidate accepts today (ROADMAP open item 4):
# a mutated FullTheorem with its failing subcertificates dropped.  Every
# op of a benchmark workload must succeed, so it joins the revalidate ops
# only on request (run.py --known-defects), and such a run is not correct
# until item 4 is fixed.
KNOWN_DEFECT_KINDS = {"dropped-subcertificates": ("fail", 8)}


# ---------------------------------------------------------------------------
# inputs from the seed


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def _jittered_grid(rng: random.Random, lo: int, hi: int, k: int) -> list:
    """k values spread evenly over lo..hi, each moved by up to JITTER.

    Op time grows with d, so a narrow jitter keeps the work of a pass
    nearly the same for every seed while the seed still picks the d.
    """
    step = (hi - lo) / k
    return [
        min(hi, max(lo, round(lo + step * (i + 0.5)) + rng.randint(-JITTER, JITTER)))
        for i in range(k)
    ]


def cold_verify_inputs(seed: int) -> list:
    # The smallest rung runs before every other op and at the end, at a
    # low and a high degree in turn, so that each of its (n, d) runs twice
    # and its stdout can be compared byte for byte.  The second rung runs
    # at a low and a high degree too.  Small-n op time grows with d, and
    # the mean of a low and a high degree hardly depends on which the seed
    # draws.
    rng = _rng("cold-verify", seed)
    lo, hi = COLD_D
    mid = (lo + hi) // 2
    low = lambda: rng.randint(lo, mid - 1)  # noqa: E731
    high = lambda: rng.randint(mid + 1, hi)  # noqa: E731
    smallest = (low(), high())
    rungs = [(LADDER[1], low())] + [(n, rng.randint(lo, hi)) for n in LADDER[2:]]
    rungs.append((LADDER[1], high()))
    order = []
    for i, (n, d) in enumerate(rungs):
        order += [(LADDER[0], smallest[i % 2]), (n, d)]
    return [{"n": n, "d": d, "kind": "cli"} for n, d in order]


def family_sweep_inputs(seed: int) -> list:
    rng = _rng("family-sweep", seed)
    ops = []
    lo, hi = FAMILY_D
    for n in WARM_NS:
        ops += [{"n": n, "d": d, "kind": "standard"}
                for d in _jittered_grid(rng, lo, hi, FAMILY_MIX["standard"])]
        ops += [{"n": n, "d": 2 * k, "kind": "mutated"}
                for k in _jittered_grid(rng, 2, hi // 2, FAMILY_MIX["mutated-even"])]
        ops += [{"n": n, "d": 2 * k + 1, "kind": "mutated"}
                for k in _jittered_grid(rng, lo // 2, (hi - 1) // 2, FAMILY_MIX["mutated-odd"])]
        ops += [{"n": n, "d": None, "kind": "infinite"}] * FAMILY_MIX["infinite"]
        ops += [{"n": n, "d": None, "kind": "quotient"}] * FAMILY_MIX["quotient"]
    rng.shuffle(ops)
    return ops


def revalidate_inputs(seed: int, known_defects: bool = False) -> list:
    # the mutated cover has even degree, so it is connected and its
    # certificate is a full one that fails on its subcertificates
    rng = _rng("revalidate", seed)
    kinds = revalidate_kinds(known_defects)
    ops = []
    for n in WARM_NS:
        # one certificate of low and one of high degree per n, so the
        # set-up work is alike for every seed; revalidation time hardly
        # depends on d, and set-up time grows with it
        low, high = rng.randint(2, 4), rng.randint(5, 8)
        d_pass, d_fail = (2 * low, 2 * high) if rng.random() < 0.5 else (2 * high, 2 * low)
        for kind, (_answer, count) in kinds.items():
            d = d_pass if kind in ("genuine-pass", "twist-edited") else d_fail
            ops += [{"n": n, "d": d, "kind": kind}] * count
    rng.shuffle(ops)
    return ops


def revalidate_kinds(known_defects: bool) -> dict:
    return {**REVALIDATE_KINDS, **KNOWN_DEFECT_KINDS} if known_defects else REVALIDATE_KINDS


INPUTS = {
    "cold-verify": cold_verify_inputs,
    "family-sweep": family_sweep_inputs,
    "revalidate": revalidate_inputs,
}


# ---------------------------------------------------------------------------
# running and checking ops


@dataclass
class Measured:
    """What one run measured; run.py turns it into metrics.

    Every record of a time (the set-up and each op) holds the time as
    measured, less any time spent sampling the speed, and, if it was
    sampled, its samples and its factor `scale` to the nominal speed
    (speed.py).  Traced ops are not sampled.
    """

    setup: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)  # one record per op executed
    passes: list = field(default_factory=list)  # the op records of each pass
    peak_rss_mb: float = 0.0
    summary: dict | None = None  # traced runs: per-name totals
    # traced runs: op time of the bracketed ops, traced and untraced
    overhead: list = field(default_factory=lambda: [0.0, 0.0])
    traces: list = field(default_factory=list)

    @property
    def samples(self) -> list:
        return [x for r in [self.setup, *self.ops] for x in r.get("samples", ())]

    @property
    def scale(self) -> float:
        """The run's factor to the nominal speed, from all its samples;
        it scales the self times of a traced run."""
        return NOMINAL_S / statistics.fmean(self.samples)

    @staticmethod
    def at_nominal(record) -> float:
        return record["seconds"] * record["scale"]

    @property
    def overhead_ratio(self) -> float:
        traced, untraced = self.overhead
        return traced / untraced

    def bracketed(self, op, plain, traced) -> dict:
        """Run op traced between two untraced runs of it.

        Warm-up and a drift of the machine's speed then fall on both
        sides of the overhead ratio, not on one.  The untraced runs are
        checked ops too.
        """
        before = plain(op)
        record = traced(op)
        after = plain(op)
        self.ops += [before, after]
        self.overhead[0] += record["seconds"]
        self.overhead[1] += (before["seconds"] + after["seconds"]) / 2
        return record


def _expected_index(n: int) -> int:
    return n if n % 2 else n // 2


def _index_of(cert_json: dict):
    for sub in cert_json["payload"].get("subcertificates", []):
        if sub["kind"] == "Index":
            return sub["payload"]["index"]
    return None


def _timed(op: dict, call, check, sampler=None) -> dict:
    """Run one op, within sampler if one is given; the check of its
    answer is not timed."""
    failure = None
    start = time.perf_counter()
    try:
        with sampler if sampler is not None else contextlib.nullcontext():
            out = call()
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        failure = "raised %s: %s" % (type(exc).__name__, exc)
    record = dict(op, seconds=time.perf_counter() - start)
    if sampler is not None:
        at_own_speed(record, sampler.report())
    ok, answer = (False, failure) if failure else check(op, out)
    return dict(record, ok=ok, answer=answer)


def _set_up(work):
    """Run the set-up of a warm workload; its record and its result."""
    sampler = Sampler()
    start = time.perf_counter()
    with sampler:
        result = work()
    return at_own_speed({"seconds": time.perf_counter() - start}, sampler.report()), result


def _passes(ops: list, execute, seconds: float, measured: Measured, max_passes=None):
    """Whole passes over ops until `seconds` have elapsed (at least one)."""
    start = time.perf_counter()
    while True:
        records = [execute(op) for op in ops]
        measured.ops += records
        measured.passes.append(records)
        if time.perf_counter() - start >= seconds or len(measured.passes) == max_passes:
            return


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_pass(measured, ops, plain, traced):
    """One pass over ops with traced(); each op at the smallest n (which
    keeps the run inside its time limit) is bracketed by plain() runs
    for the overhead ratio."""
    least = min(op["n"] for op in ops)
    _passes(
        ops,
        lambda op: measured.bracketed(op, plain, traced) if op["n"] == least else traced(op),
        0, measured, max_passes=1,
    )


def _in_process(measured, ops, make_call, check, seconds, trace) -> Measured:
    """The closed loop for the warm workloads.

    A traced run makes one pass with the tracer installed; each op at the
    smallest n also runs untraced just before and after it, for the
    overhead ratio.
    """
    plain = lambda op: _timed(op, make_call(op, None), check, Sampler())  # noqa: E731
    if not trace:
        _passes(ops, plain, seconds, measured)
    else:
        tracer = Tracer()

        def traced(op):
            tracer.install()
            try:
                return _timed(op, tracer.wrap("op", make_call(op, tracer), SPAN), check)
            finally:
                tracer.uninstall()

        _traced_pass(measured, ops, plain, traced)
        measured.summary = tracer.summary()
        measured.traces.append(tracer.records())
    measured.peak_rss_mb = _self_rss_mb()
    return measured


def _emitter(tracer):
    def emit(cert):
        return json.dumps(cert.to_json())

    return emit if tracer is None else tracer.wrap("certificates.emit", emit, SPAN)


def _decompose_bases():
    from veechlab.covering import base_decomposition

    for n in WARM_NS:
        for l in range(n):
            base_decomposition(n, l)


# -- family-sweep -----------------------------------------------------------
#
# The ops call the library through its module attributes, so that a
# traced run reaches the wrappers installed there.


def family_sweep(ops, seconds, trace, src, out_dir) -> Measured:
    from veechlab import certificates

    measured = Measured()
    measured.setup, _ = _set_up(_decompose_bases)

    def make_call(op, tracer):
        n, d, kind = op["n"], op["d"], op["kind"]
        emit = _emitter(tracer)
        if kind == "quotient":
            return lambda: certificates.verify_quotient(n).to_json()
        if kind == "infinite":
            return lambda: emit(certificates.verify_theorem(n, infinite=True))
        if kind == "mutated":
            return lambda: emit(certificates.verify_theorem(
                n, d, monodromy=certificates.mutated_monodromy(n, d)))
        return lambda: emit(certificates.verify_theorem(n, d))

    return _in_process(measured, ops, make_call, _check_family, seconds, trace)


def _check_family(op, out):
    n, kind = op["n"], op["kind"]
    if kind == "quotient":
        # the quotient of H by the covers' Veech group is a sphere whose
        # cusp widths add up to n (index n for odd n; n/2 at each of the
        # two cusp classes for even n)
        answer = "genus %d, cusp widths sum %d" % (out["genus"], sum(out["cusps"]))
        return out["genus"] == 0 and sum(out["cusps"]) == n, answer
    cert = json.loads(out)
    if kind == "mutated":
        return cert["verdict"] == "fail", cert["verdict"]
    index = _index_of(cert)
    answer = "%s, index %s" % (cert["verdict"], index)
    return cert["verdict"] == "pass" and index == _expected_index(n), answer


# -- revalidate -------------------------------------------------------------


def _revalidate_texts(ops) -> dict:
    """Certificate JSON text for every distinct (n, d, kind) of the ops."""
    from veechlab.certificates import mutated_monodromy, verify_theorem

    certs = {}
    texts = {}
    for op in ops:
        n, d, kind = op["n"], op["d"], op["kind"]
        key = (n, d, kind)
        if key in texts:
            continue
        genuine = kind in ("genuine-pass", "twist-edited")
        if (n, d, genuine) not in certs:
            monodromy = None if genuine else mutated_monodromy(n, d)
            cert = verify_theorem(n, d, monodromy=monodromy)
            if cert.verdict != ("pass" if genuine else "fail"):
                raise RuntimeError("set-up certificate for %s has verdict %s" % (key, cert.verdict))
            certs[(n, d, genuine)] = json.dumps(cert.to_json())
        data = json.loads(certs[(n, d, genuine)])
        subs = data["payload"]["subcertificates"]
        if kind == "twist-edited":
            shear = next(s for s in subs if s["kind"] == "ShearMembership")
            shear["payload"]["cylinders"][0]["twists"] += 1
        elif kind == "dropped-subcertificates":
            data["payload"]["subcertificates"] = [s for s in subs if s["verdict"] != "fail"]
            data["verdict"] = "pass"
            data["witnesses"] = []
        texts[key] = json.dumps(data)
    return texts


def revalidate(ops, seconds, trace, src, out_dir) -> Measured:
    from veechlab import certificates

    def set_up():
        _decompose_bases()
        return _revalidate_texts(ops)

    measured = Measured()
    measured.setup, texts = _set_up(set_up)

    def make_call(op, tracer):
        text = texts[(op["n"], op["d"], op["kind"])]
        return lambda: certificates.revalidate(json.loads(text))

    def check(op, verdict):
        return verdict == revalidate_kinds(True)[op["kind"]][0], verdict

    return _in_process(measured, ops, make_call, check, seconds, trace)


# -- cold-verify ------------------------------------------------------------


def _child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# Times `import veechlab.cli` in a fresh interpreter, then samples the
# interpreter's speed (speed.py) right after it.
IMPORT_CHILD = """
import json, sys, time
sys.path[:0] = [sys.argv[1]]
start = time.perf_counter()
import veechlab.cli
seconds = time.perf_counter() - start
sys.path[:0] = [sys.argv[2]]
from speed import reference_seconds
print(json.dumps({"seconds": seconds, "samples": [reference_seconds() for _ in range(%d)]}))
"""
IMPORT_SAMPLES = 5


def _cold_setup(src: Path) -> dict:
    """Median time of a fresh interpreter importing the command line.

    One import takes about a twentieth of a second, and single imports on
    a shared machine swing by half, so each is taken at its own speed and
    the median is taken over many.  Interpreter start-up is not veechlab's
    and is left out.  The record's `scale` carries the median of the
    scaled times over the median of the raw ones.
    """
    cmd = [sys.executable, "-c", IMPORT_CHILD % IMPORT_SAMPLES, str(src), str(CHILD.parent)]
    raw, scaled, samples = [], [], []
    for _ in range(COLD_SETUP_REPEATS):
        proc = subprocess.run(cmd, check=True, capture_output=True, timeout=COLD_TIMEOUT_S)
        child = json.loads(proc.stdout)
        raw.append(child["seconds"])
        scaled.append(child["seconds"] * NOMINAL_S / statistics.fmean(child["samples"]))
        samples += child["samples"]
    return {"seconds": statistics.median(raw),
            "scale": statistics.median(scaled) / statistics.median(raw),
            "samples": samples}


def cold_verify(ops, seconds, trace, src, out_dir) -> Measured:
    measured = Measured()
    measured.setup = _cold_setup(src)
    stdout_seen = {}

    def execute(op, trace_file=None):
        cmd = [sys.executable, str(CHILD), str(src), str(trace_file or "-"),
               "verify", "--n", str(op["n"]), "--d", str(op["d"])]
        speed = {}

        def call():
            proc = subprocess.run(cmd, capture_output=True, timeout=COLD_TIMEOUT_S)
            last = proc.stderr.decode("utf-8", "replace").rstrip().rpartition("\n")[2]
            if last.startswith(SPEED_PREFIX):
                speed.update(json.loads(last[len(SPEED_PREFIX):]))
            return proc.returncode, proc.stdout

        def check(op, out):
            code, stdout = out
            if code != 0:
                return False, "exit code %d" % code
            try:
                cert = json.loads(stdout)
            except ValueError:
                return False, "stdout is not JSON"
            index = _index_of(cert)
            first = stdout_seen.setdefault((op["n"], op["d"]), stdout)
            ok = cert["verdict"] == "pass" and index == _expected_index(op["n"]) and stdout == first
            same = "same stdout" if stdout == first else "stdout differs from an earlier repeat"
            return ok, "%s, index %s, %s" % (cert["verdict"], index, same)

        record = _timed(op, call, check)
        # an untraced child sampled its own speed
        return at_own_speed(record, speed) if speed else record

    if not trace:
        _passes(ops, execute, seconds, measured)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        numbers = itertools.count()
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            def traced(op):
                trace_file = Path(tmp) / ("op%d.json" % next(numbers))
                record = execute(op, trace_file)
                if trace_file.exists():
                    measured.traces.append(json.loads(trace_file.read_text(encoding="utf-8")))
                return record

            _traced_pass(measured, ops, execute, traced)
        measured.summary = merge_summaries(t["summary"] for t in measured.traces)
    measured.peak_rss_mb = _child_rss_mb()
    return measured


WORKLOADS = {
    "cold-verify": cold_verify,
    "family-sweep": family_sweep,
    "revalidate": revalidate,
}
