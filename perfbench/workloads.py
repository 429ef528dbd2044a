"""The benchmark's three workloads: seeded inputs, the call into apolar, and
an independent check of every output.

A workload hands out passes.  One pass holds every item class of the
workload exactly once, with fresh seeded inputs, so every pass has the same
mix of costs and a run made of whole passes has a stable item mix.  For each
item, `call` is the only code that is timed; `check` turns the raw result
into a plain, comparable output and compares it with a reference taken from
the mathematics, never from apolar itself.

Library functions are looked up through their modules at call time, so the
traced run sees the wrappers it installs there.

`tail_class` sets the tail percentile of a workload: the tail is the middle
sample of the `tail_class`-th costliest item class of a pass, so its rank
never falls on the border between two classes.  Each value leaves at least
ten samples beyond the tail in the shortest run expected at 30 s (see
RATIONALE.md for why `exactness_rational` does not take the smallest such
value).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import apolar
import apolar.cli

PRIME = 2**61 - 1  # the default prime of the `fp` field, written out here


@dataclass(frozen=True)
class Item:
    klass: str  # item class, one per pass; names the item in reports
    payload: tuple


def exponents(n: int, d: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree d in n variables."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for j in combo:
            e[j] += 1
        out.append(tuple(e))
    return out


def compressed_h(n: int, d: int) -> list[int]:
    """h-vector of a general form: the catalecticants have maximal rank."""
    return [min(comb(n - 1 + i, i), comb(n - 1 + d - i, d - i)) for i in range(d + 1)]


def _check_lefschetz_records(records, h, diagonal: bool) -> str | None:
    """Every record maximal, achieved <= expected, expected from h itself."""
    d = len(h) - 1
    for r in records:
        i, k = r["i"], r["k"]
        want = h[i] if diagonal else min(h[i], h[i + k])
        if r["expected"] != want:
            return f"record {i}->{i + k} expects {r['expected']}, h gives {want}"
        if r["achieved"] > r["expected"] or not r["maximal"] or r["achieved"] != want:
            return f"record {i}->{i + k} not maximal: {r['achieved']}/{r['expected']}"
    wanted = [(i, d - 2 * i) for i in range(d // 2 + 1)] if diagonal else [(i, 1) for i in range(d)]
    if [(r["i"], r["k"]) for r in records] != wanted:
        return f"records cover {[(r['i'], r['k']) for r in records]}, want {wanted}"
    return None


# -- cli_verdicts ---------------------------------------------------------------


class CliVerdicts:
    """In-process `apolar.cli.main([..., "--json"])` on the user's commands."""

    name = "cli_verdicts"
    grid = ((4, 6), (4, 10), (5, 8), (6, 6))
    families = (("VII", 7), ("VII", 9), ("IX", 7), ("IX", 9), ("X", 7), ("X", 9))
    perazzo = (4, 5, 6)
    tail_class = 4
    trace_passes = 1

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def _dense_form(n: int, d: int, rng: random.Random) -> str:
        terms = []
        for exp in exponents(n, d):
            factors = "*".join(
                f"X{j + 1}^{e}" if e > 1 else f"X{j + 1}" for j, e in enumerate(exp) if e
            )
            terms.append(f"{rng.randrange(1, PRIME)}*{factors}")
        return " + ".join(terms)

    def make_pass(self, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        items = []
        for n, d in self.grid:
            for command in ("hf", "wlp", "slp"):
                argv = [command, self._dense_form(n, d, rng)]
                if command != "hf":
                    argv += ["--seed", str(rng.getrandbits(32))]
                items.append(Item(f"{command}({n},{d})", (n, d, argv + ["--json"])))
        for label, d in self.families:
            argv = ["family", label, str(d), "--seed", str(rng.getrandbits(32)), "--json"]
            items.append(Item(f"family({label},{d})", (4, d, argv)))
        for d in self.perazzo:
            argv = ["perazzo", str(d), "--seed", str(rng.getrandbits(32)), "--json"]
            items.append(Item(f"perazzo({d})", (d + 2, d, argv)))
        return items

    def call(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = apolar.cli.main(item.payload[2])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, item: Item, raw):
        code, stdout, stderr = raw
        if code != 0:
            return None, f"exit code {code}: {stderr.strip()[:200]}"
        report = json.loads(stdout)
        report.pop("wall_time_ms", None)
        return report, self._verify(item, report["result"])

    def _verify(self, item: Item, result: dict) -> str | None:
        n, d, argv = item.payload
        command = argv[0]
        if command in ("hf", "wlp", "slp"):
            want = compressed_h(n, d)
            if result["h"] != want:
                return f"h = {result['h']}, generic form needs {want}"
            if command == "hf":
                return None if result["symmetric"] else "h reported not symmetric"
            if result["verdict"] != "holds":
                return f"{command} verdict {result['verdict']} on a generic form"
            return _check_lefschetz_records(result["records"], want, command == "slp")
        if command == "family":
            # the three webs have quotient Hilbert function 1, 4, 6, 8, 10, ...;
            # a general inverse-system form of degree d is compressed against it
            growth = [1, 4] + [2 * i + 2 for i in range(2, d + 1)]
            want = [min(growth[i], growth[d - i]) for i in range(d + 1)]
            if result["h"] != want:
                return f"h = {result['h']}, general family form needs {want}"
            wlp = result["wlp"]
            if wlp["verdict"] != "holds":
                return f"family WLP verdict {wlp['verdict']}"
            return _check_lefschetz_records(wlp["records"], want, False)
        # perazzo: h = (1, d+2, ..., d+2, 1), WLP fails in degrees 1..d-2 with
        # middle rank d+1, and every trial is spent before failing
        want = [1] + [d + 2] * (d - 1) + [1]
        if result["h"] != want:
            return f"h = {result['h']}, trivial extension needs {want}"
        wlp = result["wlp"]
        if wlp["verdict"] != "fails" or wlp["failing_degrees"] != list(range(1, d - 1)):
            return f"perazzo WLP {wlp['verdict']} at {wlp['failing_degrees']}"
        if wlp["trials_used"] != 5:
            return f"perazzo used {wlp['trials_used']} trials, not 5"
        for r in wlp["records"]:
            if r["achieved"] > r["expected"]:
                return f"record {r['i']} exceeds its bound"
            if 1 <= r["i"] <= d - 2 and (r["expected"], r["achieved"]) != (d + 2, d + 1):
                return f"middle record {r['i']}: {r['achieved']}/{r['expected']}"
        return None


# -- classify_roundtrip -----------------------------------------------------------

# The paper's three Hilbert functions of the web ideals (degrees 0..5) and
# which catalog orbit has which.
_FAST, _SLOW, _FLAT = [1, 4, 6, 8, 10, 12], [1, 4, 6, 7, 8, 9], [1, 4, 6, 6, 6, 6]
WEB_HF = {
    "I": _FAST, "II": _FLAT, "III": _FLAT, "IV": _FLAT, "V": _SLOW, "VI": _SLOW,
    "VII": _FAST, "VIII_x3x4": _FLAT, "VIII_x3sq_x2x4": _FLAT, "VIII_x3sq": _FLAT,
    "IX": _FAST, "X": _FAST,
}


class ClassifyRoundtrip:
    """Conjugate each catalog orbit representative and classify it back."""

    name = "classify_roundtrip"
    tail_class = 1
    trace_passes = 4

    def __init__(self, seed: int):
        self.seed = seed
        field = apolar.GF(PRIME)
        self.field = field
        self.webs = {
            label: apolar.orbit_representative(apolar.OrbitLabel.from_text(label), field)
            for label in WEB_HF
        }

    def make_pass(self, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        items = []
        for label in WEB_HF:
            matrix = [[rng.randrange(PRIME) for _ in range(4)] for _ in range(4)]
            items.append(Item(label, (label, matrix, rng.getrandbits(63))))
        return items

    def call(self, item: Item):
        label, matrix, seed = item.payload
        change = apolar.LinearChange(matrix, self.field)
        conjugate = self.webs[label].transformed(change)
        return apolar.classify_web_report(conjugate, seed)

    def check(self, item: Item, raw):
        label, evidence = raw
        output = {"label": label.value, "evidence": evidence}
        source = item.payload[0]
        if label.value != source:
            return output, f"conjugate of {source} classified as {label.value}"
        if evidence["gin2"] != "special":
            return output, f"gin2 gave the {evidence['gin2']} set"
        if evidence["web_hf"] != WEB_HF[source]:
            return output, f"web hf {evidence['web_hf']}, catalog has {WEB_HF[source]}"
        return output, None


# -- exactness_rational -------------------------------------------------------------


class ExactnessRational:
    """Acceptance criterion 6's identities over QQ on a stratified grid."""

    name = "exactness_rational"
    sizes = tuple((n, d, density) for n in range(2, 6) for d in range(2, 8) for density in (0.3, 0.7))
    tail_class = 8
    trace_passes = 1

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def _small(rng: random.Random) -> Fraction:
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))

    def _linear(self, n: int, rng: random.Random):
        terms = {tuple(int(j == i) for j in range(n)): self._small(rng) for i in range(n)}
        return apolar.Poly(n, apolar.QQ, terms)

    def make_pass(self, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        items = []
        for n, d, density in self.sizes:
            # a fixed number of terms per (n, d, density), so that the
            # cost of an item class varies little between seeds
            mons = exponents(n, d)
            support = rng.sample(mons, max(1, round(density * len(mons))))
            terms = {e: self._small(rng) for e in support}
            form = apolar.DualForm(apolar.Poly(n, apolar.QQ, terms))
            ell, g = self._linear(n, rng), self._linear(n, rng)
            items.append(Item(f"n{n}d{d}p{density}", (n, d, form, ell, g)))
        return items

    def call(self, item: Item):
        n, d, form, ell, g = item.payload
        h = apolar.hilbert_function(form)
        contracted = apolar.contract(ell, form)
        h_b = apolar.hilbert_function(contracted) if contracted is not None else ()
        h_c = apolar.hf_modulo_linear(form, ell)
        ledger = apolar.snake_consistency(form, g, ell)
        ann = apolar.ann_degree(form, d // 2)
        return tuple(h), tuple(h_b), tuple(h_c), ledger, len(ann)

    def check(self, item: Item, raw):
        n, d, _, _, _ = item.payload
        h, h_b, h_c, ledger, ann_dim = raw
        output = {"h": list(h), "h_b": list(h_b), "h_c": list(h_c),
                  "ledger": ledger.to_dict(), "ann_dim": ann_dim}
        return output, self._verify(n, d, list(h), list(h_b), list(h_c), ledger, ann_dim)

    @staticmethod
    def _verify(n, d, h, h_b, h_c, ledger, ann_dim) -> str | None:
        if len(h) != d + 1 or h[0] != 1 or h != h[::-1]:
            return f"h = {h} is not a Gorenstein h-vector of socle degree {d}"
        if h_b != h_b[::-1]:
            return f"h(ell o F) = {h_b} is not symmetric"
        padded_b = h_b + [0] * (d + 2 - len(h_b))
        for i in range(d + 1):
            prev = padded_b[i - 1] if i else 0
            if h[i] != prev + h_c[i]:
                return f"h_A({i}) = {h[i]} != h_B({i - 1}) + h_C({i}) = {prev} + {h_c[i]}"
        for i in range(d):
            # h_B(i) is the rank of multiplication by ell from A_i to A_{i+1}
            if padded_b[i] > min(h[i], h[i + 1]):
                return f"h_B({i}) = {padded_b[i]} exceeds min(h_{i}, h_{i + 1})"
        if [r.i for r in ledger.records] != list(range(d + 1)):
            return f"ledger covers degrees {[r.i for r in ledger.records]}, want 0..{d}"
        dim = dict(enumerate(h))
        consistent = True
        for r in ledger.records:
            if tuple(r.dims_a) != (dim.get(r.i, 0), dim.get(r.i + 1, 0)):
                return f"ledger degree {r.i} has A dims {r.dims_a}, h gives {h}"
            flags = [(rank == dims[0], rank == dims[1]) for rank, dims in
                     ((r.rank_b, r.dims_b), (r.rank_a, r.dims_a), (r.rank_c, r.dims_c))]
            (b_inj, b_surj), (a_inj, a_surj), (c_inj, c_surj) = flags
            if (b_inj and c_inj and not a_inj) or (b_surj and c_surj and not a_surj):
                consistent = False
        if not consistent or not ledger.consistent:
            return "snake ledger inconsistent"
        m = d // 2
        if ann_dim != comb(n - 1 + m, m) - h[m]:
            return f"dim [Ann]_{m} = {ann_dim}, expected C({n - 1 + m},{m}) - {h[m]}"
        return None


WORKLOADS = {w.name: w for w in (CliVerdicts, ClassifyRoundtrip, ExactnessRational)}
