"""The benchmark's workloads: inputs, one timed pass, and output checks.

Each workload builds its inputs in ``__init__`` (timed as set-up),
runs one unit of work in ``run_pass`` (timed), and checks it in
``check``.  ``verify`` runs once per run, untimed, for checks whose
reference is expensive to compute.  ``verify`` and ``check`` return
(operations attempted, operations failed, list of problems).
"""

import contextlib
import io
import json
import os
import random

import reference

GOLDEN_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reproduce.json")


def build_all_witt_tables(rdpk3):
    for p, nmax in sorted(rdpk3.SUPPORTED_RANGES.items()):
        for n in range(1, nmax + 1):
            rdpk3.build_witt_table(p, n)


def canonical_report(doc, seed):
    """The deterministic part of a ``--format json reproduce`` report.

    Drops ``wall_time`` and maps the echoed seed and command back to
    seed 0, after checking that they echo the requested seed.  Returns
    (canonical text, problems).
    """
    doc = dict(doc)
    problems = []
    if not isinstance(doc.pop("wall_time", None), (int, float)):
        problems.append("report has no numeric wall_time")
    command = "reproduce" + (f" --seed {seed}" if seed else "")
    if doc.get("seed") != seed or doc.get("command") != command:
        problems.append(f"report echoes seed {doc.get('seed')!r}, command {doc.get('command')!r}")
    doc["seed"] = 0
    doc["command"] = "reproduce"
    return json.dumps(doc, indent=1, sort_keys=True) + "\n", problems


class Reproduce:
    """``rdpk3 --format json --seed S reproduce``, checked against the golden report."""

    def __init__(self, rdpk3, seed, root):
        self.rdpk3 = rdpk3
        self.seed = seed
        build_all_witt_tables(rdpk3)
        # reproduce builds its own charts; these make set-up pay for chart
        # construction, so that rdp_chart costs show in setup_s.
        self.rings = [
            rdpk3.rdp_chart(rdpk3.parse_rdp_key(key))
            for key in rdpk3.reproduce.CANONICITY_CHART_KEYS
        ]
        self.argv = ["--format", "json", "--seed", str(seed), "reproduce"]
        self.golden = None

    def verify(self):
        with open(GOLDEN_REPORT, encoding="utf-8") as fh:
            self.golden = fh.read()
        self.golden_ids = [r["id"] for r in json.loads(self.golden)["records"]]
        return 0, 0, []

    def run_pass(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.rdpk3.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        doc = json.loads(text)
        canonical, problems = canonical_report(doc, self.seed)
        if code != 0:
            problems.append(f"reproduce exited with {code}")
        if canonical != self.golden:
            problems.append("report differs from the golden report")
        status = {r["id"]: r["status"] for r in doc["records"]}
        failed = sum(status.get(rid) != "pass" for rid in self.golden_ids)
        return len(self.golden_ids), failed, problems


class WittFp:
    """Witt-ring axiom and projection-rule trials over boxed F_p scalars."""

    AXIOM_TRIALS = 100
    PROJECTION_TRIALS = 400
    ORACLE_PAIRS = 25

    def __init__(self, rdpk3, seed, root):
        self.rdpk3 = rdpk3
        self.seed = seed
        build_all_witt_tables(rdpk3)
        self.ranges = [
            (p, n)
            for p, nmax in sorted(rdpk3.SUPPORTED_RANGES.items())
            for n in range(1, nmax + 1)
        ]

    def verify(self):
        """Witt arithmetic over F_p against Z/p^n, the ring W_n(F_p) is."""
        rdpk3 = self.rdpk3
        attempted = failed = 0
        problems = []
        for p, n in self.ranges:
            m = p**n
            for xd, yd in reference.random_witt_pairs(self.seed, p, n, self.ORACLE_PAIRS):
                x = rdpk3.WittVec(p, [rdpk3.FpScalar(p, a) for a in xd])
                y = rdpk3.WittVec(p, [rdpk3.FpScalar(p, a) for a in yd])
                xi, yi = reference.witt_to_int(p, xd), reference.witt_to_int(p, yd)
                for op, got, want in (
                    ("add", rdpk3.witt_add(x, y), xi + yi),
                    ("mul", rdpk3.witt_mul(x, y), xi * yi),
                    ("neg", rdpk3.witt_neg(x), -xi),
                    ("sub", rdpk3.witt_sub(x, y), xi - yi),
                ):
                    attempted += 1
                    digits = [c.value for c in got.components]
                    if reference.witt_to_int(p, digits) != want % m:
                        failed += 1
                        problems.append(f"witt_{op} p={p} n={n} {xd} {yd} gave {digits}")
        return attempted, failed, problems

    def run_pass(self):
        trials = self.rdpk3.reproduce
        fails = [
            trials.witt_axiom_trials(
                p, n, self.AXIOM_TRIALS, random.Random(f"{self.seed}:axioms:{p}:{n}")
            )
            for p, n in self.ranges
        ]
        fails.append(
            trials.projection_trials(
                self.PROJECTION_TRIALS, random.Random(f"{self.seed}:projection")
            )
        )
        return fails

    def check(self, fails):
        attempted = self.AXIOM_TRIALS * len(self.ranges) + self.PROJECTION_TRIALS
        return attempted, sum(fails), []


# Pinned values, from the paper's example and the seed commit.
EX71_Q = (2, 4, 8, 16, 32)
EX71_COUNTS = (9, 25, 45, 289, 1089)
EX71_HEIGHT = 3
WEIGHTED_Q = (2, 4, 8)
WEIGHTED_COUNTS = {
    "ordinary:p6411:txy": (6, 22, 72),
    "ordinary:p6411:height3": (7, 21, 37),
}
RANDOM_MODELS = 3
RANDOM_Q = (2, 4, 8, 16)
# d0 = 7, 15, 23 come with overlattice_instances(); the family goes on to 55.
EXTRA_D0 = (31, 39, 47, 55)
OVERLATTICE_VERDICTS = {
    "overlattice:neg4+7+d7": False,
    "overlattice:control-hyperbolic": True,
    "overlattice:split+7+d7": False,
    "overlattice:neg4+15+d15": False,
    "overlattice:split+15+d15": False,
    "overlattice:neg4+23+d23": False,
    "overlattice:split+23+d23": False,
    "overlattice:neg16+7+d7": False,
}
OVERLATTICE_VERDICTS.update(
    {f"overlattice:{tag}+{d0}+d{d0}": False for d0 in EXTRA_D0 for tag in ("neg4", "split")}
)
GLUE_RECORDS = 5


class CountsLattice:
    """Point counts, the height from counts, overlattice searches and gluing."""

    def __init__(self, rdpk3, seed, root):
        self.rdpk3 = rdpk3
        self.ex71 = rdpk3.load_model(os.path.join(root, "models", "ex71.json"))
        self.weighted = [(rid, model) for rid, model, _want, _anchor in rdpk3.reproduce.ordinarity_examples()]
        rng = random.Random(f"{seed}:counts:models")
        self.random_texts = [reference.random_two_chart_texts(rng) for _ in range(RANDOM_MODELS)]
        self.random_models = [
            rdpk3.TwoChart(
                2,
                rdpk3.parse_poly(t1, ("x", "y", "t"), modulus=2),
                rdpk3.parse_poly(t2, ("x", "y"), modulus=2),
            )
            for t1, t2 in self.random_texts
        ]
        self.lattices = [(rid, lat) for rid, lat, _want in rdpk3.reproduce.overlattice_instances()]
        for d0 in EXTRA_D0:
            l3 = rdpk3.GramLattice([[2, 1], [1, (d0 + 1) // 2]])
            for tag, l1 in (("neg4", [-4]), ("split", [2, -2])):
                lat = rdpk3.diagonal_gram(l1).direct_sum(rdpk3.diagonal_gram([d0])).direct_sum(l3)
                self.lattices.append((f"overlattice:{tag}+{d0}+d{d0}", lat))
        self.expected = None

    def verify(self):
        """Brute-force counts for the weighted and the random models."""
        problems = []
        weighted = {}
        for rid, model in self.weighted:
            poly = model.polynomial
            weighted[rid] = tuple(
                reference.weighted_count(str(poly), poly.variables, q) for q in WEIGHTED_Q
            )
            if weighted[rid] != WEIGHTED_COUNTS.get(rid):
                problems.append(f"reference counts {weighted[rid]} for {rid} are not the pinned ones")
        random_counts = [
            tuple(
                reference.two_chart_count((t1, ("x", "y", "t")), (t2, ("x", "y")), q)
                for q in RANDOM_Q
            )
            for t1, t2 in self.random_texts
        ]
        self.expected = (weighted, random_counts)
        return 0, 0, problems

    def run_pass(self):
        rdpk3 = self.rdpk3
        counts = [rdpk3.count_points(self.ex71, q) for q in EX71_Q]
        height = rdpk3.height_from_counts(counts, 2)
        weighted = {
            rid: tuple(rdpk3.count_points(model, q) for q in WEIGHTED_Q)
            for rid, model in self.weighted
        }
        random_counts = [
            tuple(rdpk3.count_points(model, q) for q in RANDOM_Q) for model in self.random_models
        ]
        searches = [
            (rid, rdpk3.unimodular_overlattice_exists(lat)) for rid, lat in self.lattices
        ]
        glue = rdpk3.reproduce.check_glue()
        return counts, height, weighted, random_counts, searches, glue

    def check(self, result):
        counts, height, weighted, random_counts, searches, glue = result
        want_weighted, want_random = self.expected
        problems = []
        outcomes = [got == want for got, want in zip(counts, EX71_COUNTS)]
        outcomes.append(height == self.rdpk3.finite(EX71_HEIGHT))
        for rid, got in weighted.items():
            outcomes += [g == w for g, w in zip(got, want_weighted[rid])]
        for got, want in zip(random_counts, want_random):
            outcomes += [g == w for g, w in zip(got, want)]
        for rid, (found, witness) in searches:
            want = OVERLATTICE_VERDICTS.get(rid)
            outcomes.append(
                found == want and (witness is None or abs(witness.det) == 1)
            )
        outcomes += [r.status == "pass" for r in glue]
        if len(glue) != GLUE_RECORDS:
            problems.append(f"check_glue gave {len(glue)} records, not {GLUE_RECORDS}")
        if not all(outcomes):
            problems.append(
                f"counts {counts}, height {height}, weighted {weighted}, "
                f"random {random_counts} (want {want_random}), "
                f"verdicts {[(rid, f) for rid, (f, _w) in searches]}"
            )
        return len(outcomes), outcomes.count(False), problems


WORKLOADS = {"reproduce": Reproduce, "witt_fp": WittFp, "counts_lattice": CountsLattice}
