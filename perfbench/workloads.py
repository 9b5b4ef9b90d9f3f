"""The benchmark's three workloads.

Each workload hands out its inputs in *rounds*.  ``inputs()`` chooses the
next round's models as ``(kind, ensemble, index)`` triples; it is harness
work and may consult the oracles.  ``prepare(r, inputs)`` makes the items
of round ``r`` with the package alone: models generated from the seed,
validated and taken through a JSON file round trip.  ``run(item)`` is the
timed call into the package and ``check(item, output)`` compares the output
with the oracles of ``oracles.py``.  Every round holds the same kinds of
item in the same order, so any share of items counted per round is the
same in every run.

``inputs`` and ``check`` run in the oracle process (``oracle_process.py``),
``prepare`` and ``run`` in the measured one.  ``oracles`` is imported only
inside the oracle-side methods, so the measured process never loads scipy.

The package is always reached through module attributes (``evolution.
propagators``, never a name bound here at import), so a tracer that patches
those attributes sees every call.
"""

import contextlib
import io
import itertools
from dataclasses import dataclass

import numpy as np

from dephasing import cli, criteria, evolution, witnesses
from dephasing import model as dmodel

#: seed of the fixed generic ensemble that supplies the known-fault models of
#: ``certify``; it does not depend on the run's ``--seed``
FAULT_SEED = 7


@dataclass
class Item:
    kind: str
    model: object
    path: object
    t: float = 1.0
    expect_fault: bool = False
    round_index: int = 0


def ensemble(seed, stream, n, m, family):
    """An unbounded seeded ensemble; ``stream`` keeps the families of one run
    on independent random streams."""
    return dmodel.EnsembleSpec(seed=seed * 16 + stream, count=2 ** 62, n=n, m=m,
                               family=dmodel.Family(family))


def round_trip(model, path):
    """Validate, save, load and validate again, as a user's file would be."""
    dmodel.save_model(dmodel.validate(model), path)
    return dmodel.validate(dmodel.load_model(path))


class Workload:
    """Shared ``prepare``: the package calls that make a round's items."""

    t = 1.0

    def prepare(self, r, inputs):
        items = []
        for pos, (kind, spec, index) in enumerate(inputs):
            path = self.workdir / f"{self.name}_{pos}.json"
            model = round_trip(dmodel.random_instance(spec, index), path)
            items.append(Item(kind, model, path, t=self.t,
                              expect_fault=kind == "fault", round_index=r))
        return items


class Sweep(Workload):
    """``dephasing sweep`` through ``cli.main`` on one generic model; one item
    is a whole sweep, including model load, validation and the CSV write."""

    name = "sweep"
    sizes = {"family": "generic", "n": 6, "m": 16, "steps": 151,
             "t_start": 0.0, "t_end": 2.0, "items_per_round": 1,
             "sampled_rows_per_item": 3}

    def __init__(self, seed, workdir):
        s = self.sizes
        self.seed = seed
        self.workdir = workdir
        self.spec = ensemble(seed, 0, s["n"], s["m"], s["family"])
        self.csv_path = workdir / "sweep.csv"
        self.grid = np.linspace(s["t_start"], s["t_end"], s["steps"])

    def inputs(self):
        return [("sweep", self.spec, 0)]

    def run(self, item):
        s = self.sizes
        argv = ["sweep", "--model", str(item.path),
                "--t-start", repr(s["t_start"]), "--t-end", repr(s["t_end"]),
                "--steps", str(s["steps"]), "--out", str(self.csv_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, self.csv_path.read_text()

    def check(self, item, output):
        import oracles
        code, text = output
        oracles.expect(code == cli.EXIT_SEPARABLE, f"sweep exited with {code}")
        rng = np.random.default_rng([self.seed, item.round_index])
        rows = [0] + sorted(rng.choice(np.arange(1, len(self.grid)),
                                       self.sizes["sampled_rows_per_item"] - 1,
                                       replace=False).tolist())
        oracles.check_sweep_csv(text, item.model, self.grid, rows)


def evaluate(model, t):
    """The path a user takes for one model at one time: a verdict, then its
    certificate (a product decomposition or the witness scan)."""
    props = evolution.propagators(model, t)
    report = criteria.decide_from_props(model, props)
    if report.separable:
        return report, criteria.build_decomposition(model, props, report)
    return report, witnesses.witness_scan(model, props, report)


class ScanMixed(Workload):
    """``decide_from_props`` + ``witness_scan`` on models with R(0) = 1/M,
    where the scan takes the 3x3 X/D path; one item is one model."""

    name = "scan_mixed"
    sizes = {"family": "mixed", "n": 4, "m": 16, "t": 1.0, "items_per_round": 2}

    def __init__(self, seed, workdir):
        s = self.sizes
        self.workdir = workdir
        self.t = s["t"]
        self.spec = ensemble(seed, 1, s["n"], s["m"], s["family"])
        self.indices = itertools.count()

    def inputs(self):
        return [("mixed", self.spec, next(self.indices))
                for _ in range(self.sizes["items_per_round"])]

    def run(self, item):
        return evaluate(item.model, item.t)

    def check(self, item, output):
        import oracles
        oracles.check_scan_mixed(item.model, item.t, *output)


class Certify(Workload):
    """One verdict plus its certificate per model, on N=3, M=8 models: generic
    (entangled, bordered witness path) and commuting (separable, product
    decomposition), plus fixed models that hit the known empty-witness fault.

    Seeded generic candidates are kept only if the oracle's most negative
    bordered minor lies clearly below the package's absolute cut, so that
    whether an item fails never depends on the seed.  The fault models come
    from the fixed ensemble ``FAULT_SEED``: entangled, yet every bordered
    minor lies clearly above the cut.  This screening happens in
    ``inputs()``, outside every timer.
    """

    name = "certify"
    #: kinds in round order; generic models are the majority, so the median
    #: item is a generic one
    ORDER = (("generic",) * 4 + ("commuting",) + ("generic",) * 4 + ("commuting",)
             + ("generic",) * 3 + ("fault",) + ("generic",) * 4 + ("commuting",)
             + ("generic",) * 4 + ("commuting",) + ("generic",) * 2 + ("commuting",)
             + ("generic",) * 3 + ("commuting",) + ("fault",))
    sizes = {"n": 3, "m": 8, "t": 1.0, "fault_seed": FAULT_SEED,
             "generic_per_round": ORDER.count("generic"),
             "commuting_per_round": ORDER.count("commuting"),
             "fault_per_round": ORDER.count("fault")}

    def __init__(self, seed, workdir):
        s = self.sizes
        self.workdir = workdir
        self.t = s["t"]
        self.specs = {
            "generic": ensemble(seed, 2, s["n"], s["m"], "generic"),
            "fault": ensemble(FAULT_SEED, 0, s["n"], s["m"], "generic"),
            "commuting": ensemble(seed, 3, s["n"], s["m"], "commuting"),
        }
        self.indices = {"generic": self._screened("generic"),
                        "fault": self._screened("fault"),
                        "commuting": itertools.count()}

    def _screened(self, kind):
        import oracles
        cut = oracles.NEGATIVE_CUT
        for index in itertools.count():
            model = dmodel.random_instance(self.specs[kind], index)
            low, pt_min = oracles.smallest_bordered_minor(model, self.t)
            if (low < 2 * cut if kind == "generic" else low > cut / 2 and pt_min < -1e-2):
                yield index

    def inputs(self):
        return [(kind, self.specs[kind], next(self.indices[kind])) for kind in self.ORDER]

    def run(self, item):
        return evaluate(item.model, item.t)

    def check(self, item, output):
        import oracles
        if item.kind == "commuting":
            oracles.check_certify_separable(item.model, item.t, *output)
        else:
            oracles.check_certify_entangled(item.model, item.t, *output)


WORKLOADS = {cls.name: cls for cls in (Sweep, ScanMixed, Certify)}
