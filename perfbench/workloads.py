"""The three workloads: seeded inputs, one pass of public duvalk3 calls, and
the exact check of every answer against `expected`.

Each pass is a closed loop: one thread issues the next call only after the
previous one returned.  An op is one public call plus its checks; it fails
if it raises or any check disagrees.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from fractions import Fraction

import expected as ex

RANDOM_FORMS = 300


class Recorder:
    """Times ops and phases, and counts ops attempted and failed.

    Latencies are kept only for the ops named in `latency_ops`, so that
    the set of timed calls does not depend on the seed."""

    def __init__(self, latency_ops: tuple[str, ...], tracer=None) -> None:
        self.tracer = tracer
        self.latency_ops = latency_ops
        self.op_us: list[float] = []
        self.phases: dict[str, float] = {}
        self.phase_counts: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextlib.contextmanager
    def phase(self, name: str):
        if self.tracer is None:
            t0 = time.perf_counter()
            yield
            self.phases[name] = time.perf_counter() - t0
            return
        with self.tracer.span(f"bench.{name}") as span:
            yield
        self.phases[name] = span.seconds
        self.phase_counts[name] = span.delta

    def op(self, what: str, fn, *args):
        """Call fn(*args) as one timed op; returns (True, result) or (False, None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self._latency(what, t0)
            self._fail(what, traceback.format_exc(limit=3))
            return False, None
        self._latency(what, t0)
        return True, result

    def _latency(self, what: str, t0: float) -> None:
        if what in self.latency_ops:
            self.op_us.append((time.perf_counter() - t0) * 1e6)

    def check(self, ok: bool, what: str, *args) -> None:
        """Record the verdict of the op just made (op() already counted it).

        `what` is formatted with args only on failure, so describing an op
        costs nothing inside the timed loop."""
        if not ok:
            self._fail(what.format(*args), "wrong answer")

    def _fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {detail}")


class Reid95:
    """`search --stabilize`, then the sigma = 3 probe at the stabilized bound."""

    LATENCY_OPS = ("stabilized_enumeration", "find_signature")

    def setup(self, seed: int, plant: bool) -> None:
        # the inputs are fixed by the paper; the seed is unused here
        self.families = ex.REID_FAMILIES + (1 if plant else 0)

    def run(self, rec: Recorder, duvalk3) -> None:
        with rec.phase("stabilize"):
            ok, res = rec.op("stabilized_enumeration", duvalk3.stabilized_enumeration)
            if ok:
                fams, bound = res
                found = {(f.family.weights.a, f.family.degree, f.basket.tokens(),
                          f.sigma) for f in fams}
                rec.check(
                    len(fams) == self.families
                    and bound == ex.STABILIZED_BOUND
                    and ex.HYPERSURFACE_ROWS <= found
                    and {f.sigma for f in fams} == ex.REID_SIGNATURES,
                    "stabilized_enumeration")
        with rec.phase("probe"):
            ok, hits = rec.op("find_signature", duvalk3.find_signature, 3,
                              ex.STABILIZED_BOUND)
            if ok:
                rec.check(hits == [] and (res is None or
                                          [f for f in res[0] if f.sigma == 3] == []),
                          "find_signature(3)")


class BsySweep:
    """Every du Val basket x cover degree 1..8 at q = 1, plus q = 2, 3 per degree."""

    DEGREES = range(1, 9)
    LATENCY_OPS = ("bsy_check",)

    def setup(self, seed: int, plant: bool) -> None:
        from duvalk3 import Generator, SpaceLabel

        self.baskets = sorted(ex.du_val_baskets())
        per_degree = len(self.baskets) + 2
        self.order = list(range(len(self.DEGREES) * per_degree))
        random.Random(seed).shuffle(self.order)
        x = SpaceLabel("X", 6)
        self.mid = Generator("p_*[pt_F×E]", 2, x)
        self.fund_x = Generator("[X]", 6, x)
        self.plant = self.order[0] if plant else None

    def run(self, rec: Recorder, duvalk3) -> None:
        with rec.phase("enumerate_baskets"):
            ok, res = rec.op("enumerate_baskets", duvalk3.enumerate_baskets,
                             ex.CURVE_BOUND)
            if ok:
                keys = [tuple((t.kind, t.rank) for t in b) for b, _ in res]
                rec.check(sorted(keys) == self.baskets
                          and all(s == ex.sigma_of(k) for k, (_, s) in zip(keys, res)),
                          "enumerate_baskets")
        by_key = dict(zip(keys, (b for b, _ in res))) if ok else {}
        n = len(self.baskets)
        KawamataDiagram, SurfaceModel = duvalk3.KawamataDiagram, duvalk3.SurfaceModel
        bsy_check = duvalk3.bsy_check
        with rec.phase("bsy_check"):
            for idx in self.order:
                degree = idx // (n + 2) + 1
                j = idx % (n + 2)
                if j < n:
                    sigma = ex.sigma_of(self.baskets[j])
                    basket = by_key.get(self.baskets[j])
                    if basket is None:  # enumerate_baskets failed; keep sweeping
                        basket = duvalk3.Basket(tuple(
                            duvalk3.ADEType(*t) for t in self.baskets[j]))
                    k = KawamataDiagram(1, degree, SurfaceModel(basket))
                else:
                    sigma = 0
                    k = KawamataDiagram(j - n + 2, degree)
                want = Fraction(sigma + (idx == self.plant), degree)
                ok, report = rec.op("bsy_check", bsy_check, k)
                if ok:
                    hodge = report.hodge_route
                    rec.check(report.passed and hodge.coefficient(self.mid) == want
                              and hodge.coefficient(self.fund_x) == 1,
                              "bsy_check(q={}, d={}, #{})", k.q, degree, j)


class Lattice:
    """Novikov assembly over every basket, random forms, the table, the CLI.

    Latency is taken over the novikov_assembly calls only: the random forms
    change with the seed, and their largest ones would otherwise set p99."""

    LATENCY_OPS = ("novikov_assembly",)

    def setup(self, seed: int, plant: bool) -> None:
        import duvalk3
        from duvalk3 import ADEType, Basket, SymIntForm, embedded_catalog

        self.baskets = [(Basket(tuple(ADEType(k, r) for k, r in key)),
                         ex.sigma_of(key), tuple(-r for _, r in key))
                        for key in ex.du_val_baskets()]
        self.forms = [(SymIntForm(m), inertia)
                      for m, inertia in ex.random_forms(seed, RANDOM_FORMS)]
        if plant:
            form, (p, n, z) = self.forms[0]
            self.forms[0] = (form, (p + 1, n, z))
        self.rows = embedded_catalog()
        self.table_text = "\n".join(row.format() for row in self.rows) + "\n"
        self.cli = ex.cli_cases()

    def run(self, rec: Recorder, duvalk3) -> None:
        novikov = duvalk3.novikov_assembly
        with rec.phase("novikov"):
            for basket, sigma, tubes in self.baskets:
                ok, nd = rec.op("novikov_assembly", novikov, basket)
                if ok:
                    rec.check(nd.sigma_surface == sigma and nd.tube_signatures == tubes,
                              "novikov_assembly({})", basket)
        form_signature = duvalk3.form_signature
        with rec.phase("forms"):
            for form, inertia in self.forms:
                ok, s = rec.op("form_signature", form_signature, form)
                if ok:
                    rec.check((s.positives, s.negatives, s.zeros) == inertia,
                              "form_signature(rank {})", form.dim)
        with rec.phase("catalog"):
            for row, (_, w, d, b, s) in zip(self.rows, ex.TABLE):
                ok, report = rec.op("verify_row", duvalk3.verify_row, row)
                if ok:
                    got = {c.field: c.actual for c in report.checks}
                    rec.check(report.ok and got == ex.verify_fields(w, d, b, s),
                              "verify_row({})", row.name)
            ok, parsed = rec.op("load_catalog", duvalk3.load_catalog, self.table_text)
            if ok:
                got = tuple((r.name, r.weights, r.degrees, r.basket.tokens(), r.sigma)
                            for r in parsed)
                rec.check(got == ex.TABLE, "load_catalog")
        with rec.phase("cli"):
            for argv, want in self.cli:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    ok, code = rec.op("cli.main", duvalk3.cli.main, argv)
                out = buf.getvalue()
                if rec.tracer is not None:
                    rec.tracer.count("cli.stdout_bytes", len(out.encode("utf-8")))
                if ok:
                    rec.check(code == 0 and out == want, "cli {}", argv)


WORKLOADS = {"reid95": Reid95, "bsy_sweep": BsySweep, "lattice": Lattice}
