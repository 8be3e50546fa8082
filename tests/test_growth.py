"""Growth pins: how the work of one theorem grows with n.

verify_theorem(n, 3), its compact JSON (as `veechlab verify` writes it),
its revalidate and the Index's words at n = 61 and at n = 123 = 2 * 61 +
1.  Counts and bytes are exact and repeatable where timings are not, and
their ratio between the two n shows the complexity class: about 2 for
work linear in n, about 4 for quadratic.  A change that alters a class
lowers (or, with its reason, raises) the bound here in the same change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import veechlab
from veechlab import certificates, covering
from veechlab.certificates import revalidate, verify_theorem
from veechlab.veech import subgroup_words

# the largest ratio (n = 123) / (n = 61) of each count, and its values
BOUNDS = {
    "profiles": 2.1,  # _finite_profile calls: 31 and 62 directions
    "cycle_types": 2.1,  # Monodromy.cycle_type calls: 60 and 122
    # 35 and 67; 61 is prime and 123 = 3 * 41, so they have one and two
    # rotation slots
    "subcertificates": 2.1,
    # 13,206 and 28,606 bytes (x2.17) plus 10%: each of the O(n) shears
    # has one row per distinct inverse modulus, two at most at both n
    # (63,741 and 235,445 bytes, x3.69, while a shear had a row per
    # cylinder type)
    "json_bytes": 2.39,
}


def _counts(n: int, monkeypatch) -> dict:
    counts = dict.fromkeys(BOUNDS, 0)
    profile, cycle_type = certificates._finite_profile, covering.Monodromy.cycle_type

    def counted_profile(*args):
        counts["profiles"] += 1
        return profile(*args)

    def counted_cycle_type(self, w):
        counts["cycle_types"] += 1
        return cycle_type(self, w)

    with monkeypatch.context() as mp:
        mp.setattr(certificates, "_finite_profile", counted_profile)
        mp.setattr(covering.Monodromy, "cycle_type", counted_cycle_type)
        cert = verify_theorem(n, 3)
        text = json.dumps(cert.to_json(), separators=(",", ":"))
        assert cert.verdict == revalidate(json.loads(text)) == "pass"
    counts["subcertificates"] = len(cert.payload["subcertificates"])
    counts["json_bytes"] = len(text.encode())
    return counts


def test_one_theorem_grows_linearly_in_n(monkeypatch):
    small, large = _counts(61, monkeypatch), _counts(123, monkeypatch)
    for name, bound in BOUNDS.items():
        assert large[name] <= bound * small[name], (name, small[name], large[name])


# the largest ratio (n = 123) / (n = 61) of two counts that grow
# quadratically today, and their values
QUADRATIC_BOUNDS = {
    # the Index's letters, len(w) summed over subgroup_words(n): 1,052 and
    # 4,028 (x3.83); the words S_j T^2 S_j^-1 hold O(n^2) letters in all
    # until item 13's syllable words lower it
    "index_letters": 4.2,
    # the lift-plan entries that a cold verify_theorem(n, 3) types,
    # len(unmoved) + len(rest) over the plans of n's type table: 930 and
    # 3,782 (x4.07); each plan holds its direction's O(n) cylinders until
    # item 15's sparse theorems lower it
    "lift_plan_entries": 4.5,
}


def _quadratic_counts(n: int) -> dict:
    certificates._types.cache_clear()  # the theorem types its plans cold
    assert verify_theorem(n, 3).verdict == "pass"
    plans = certificates._types(n)._lifts.values()
    return {"index_letters": sum(map(len, subgroup_words(n))),
            "lift_plan_entries": sum(len(unmoved) + len(rest) for unmoved, rest in plans)}


def test_the_index_letters_and_the_lift_plans_grow_below_their_bounds():
    small, large = _quadratic_counts(61), _quadratic_counts(123)
    for name, bound in QUADRATIC_BOUNDS.items():
        assert large[name] <= bound * small[name], (name, small[name], large[name])


# the largest ratio (n = 123) / (n = 61) of the bytes that tracemalloc
# counts live after a cold verify_theorem(n, 3), the certificate and every
# memo it filled: 1,517,259 and 4,723,438 (x3.11, Python 3.11; with the
# generator-to-cylinder map that each direction kept before lift plans,
# 1,777,707 and 5,824,998, x3.28) plus 10%.  The type table keeps a lift
# plan per direction and set of
# moving generators, each as long as the direction's unmoved types, so
# this also bounds how the plans grow
LIVE_BYTES_BOUND = 3.42

# run in a fresh interpreter, whose memos start empty whatever tests ran
# before; each n is traced from its own start, after a collection
_LIVE_BYTES = """
import gc, json, tracemalloc
from veechlab.certificates import verify_theorem
live = []
for n in (61, 123):
    gc.collect()
    tracemalloc.start()
    cert = verify_theorem(n, 3)
    gc.collect()
    live.append(tracemalloc.get_traced_memory()[0])
    tracemalloc.stop()
print(json.dumps(live))
"""


def test_live_bytes_after_a_cold_theorem_grow_below_the_bound():
    src = str(Path(veechlab.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _LIVE_BYTES], env=env, capture_output=True,
                         text=True, check=True)
    small, large = json.loads(run.stdout)
    assert large <= LIVE_BYTES_BOUND * small, (small, large)
