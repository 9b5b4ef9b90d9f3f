"""Record the package's outputs on a fixed corpus, and compare two records.

    python tools/compare_outputs.py dump OUT.json [--src DIR]
    python tools/compare_outputs.py compare BEFORE.json AFTER.json

``dump`` imports ``dephasing`` from DIR (default: the ``src`` next to this
script), evaluates every corpus model at every time and writes one record per
evaluation: the verdict, both norm families and the margin as exact float
hex, and a SHA-256 digest of the bytes of the partial-transpose spectrum, of
the full witness list (class, indices, closed form and determinant of every
witness, in order) and of the decomposition's weights, basis and phases.
Beside those digests, a separable record keeps its sorted weights and its
reconstruction error ||sigma_sep - sigma||_F as float hex.  ``compare``
prints one summary line, and, when decomposition digests differ, how far
the sorted weights and the reconstruction errors moved; it exits 0 only if
every field of every record is identical.

Only names that every version of the package has are used, so the same
script records an older checkout and a newer one for comparison.

Corpus: the four ensemble families at N = 2..5 and M in {3, 4, 8, 16}, plus
generic N = 3 at M = 12 (generic N = 3 at M >= 8 holds the entangled states
that get no witness), seeds 0 and 1, times 0.4, 1 and 3.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

FAMILIES = ("generic", "commuting", "mixed", "pure")
SIZES = [(n, m) for n in (2, 3, 4, 5) for m in (3, 4, 8, 16)]
EXTRA = [("generic", 3, 12)]
SEEDS = (0, 1)
TIMES = (0.4, 1.0, 3.0)


def corpus():
    for family in FAMILIES:
        for n, m in SIZES:
            yield family, n, m
    yield from EXTRA


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def array_digest(a):
    a = np.ascontiguousarray(a)
    return digest(a.dtype.str, a.shape, a.tobytes())


def witness_digest(witnesses):
    lines = [f"{ev.class_tag}|{tuple(ev.indices)}|{float(ev.closed_form).hex()}"
             f"|{float(ev.determinant).hex()}" for ev in witnesses]
    return digest("\n".join(lines))


def evaluate(dephasing, family, n, m, seed, t):
    spec = dephasing.EnsembleSpec(seed=seed, count=1, n=n, m=m,
                                  family=dephasing.Family(family))
    model = dephasing.random_instance(spec, 0)
    props = dephasing.propagators(model, t)
    report = dephasing.decide_from_props(model, props)
    state = dephasing.joint_state(model, props)
    eigs = dephasing.pt_spectrum(state, "system")
    record = {
        "verdict": report.verdict,
        "qubit_like": [[j, float(x).hex()] for j, x in report.qubit_like],
        "cross": [[j, l, float(x).hex()] for j, l, x in report.cross],
        "margin": float(report.margin).hex(),
        "pt_eigenvalues": array_digest(eigs),
    }
    if report.separable:
        dec = dephasing.build_decomposition(model, props, report)
        record["decomposition"] = [array_digest(a) for a in
                                   (dec.weights, dec.env_basis, dec.phases)]
        record["sorted_weights"] = [float(x).hex() for x in np.sort(dec.weights)]
        record["reconstruction_error"] = float(
            np.linalg.norm(dec.reconstruct() - state.sigma)).hex()
    else:
        scan = dephasing.witness_scan(model, props, report)
        record["witness_count"] = len(scan.witnesses)
        record["witnesses"] = witness_digest(scan.witnesses)
    return record


def dump(out, src):
    sys.path.insert(0, str(Path(src).resolve()))
    import dephasing

    start = time.perf_counter()
    records = {}
    for family, n, m in corpus():
        for seed in SEEDS:
            for t in TIMES:
                key = f"{family}/N={n}/M={m}/seed={seed}/t={t}"
                records[key] = evaluate(dephasing, family, n, m, seed, t)
    with open(out, "w") as fh:
        json.dump({"source": dephasing.__file__, "records": records}, fh,
                  indent=1, sort_keys=True)
    print(f"dumped {len(records)} evaluations from {dephasing.__file__} "
          f"in {time.perf_counter() - start:.1f} s")


def decomposition_moves(a, b):
    """How far the sorted weights and the reconstruction errors moved over
    the records in both files whose decomposition digests differ."""
    weights = errors = 0.0
    largest = [0.0, 0.0]
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        if (ra.get("decomposition") == rb.get("decomposition")
                or "sorted_weights" not in ra or "sorted_weights" not in rb):
            continue
        wa, wb = ([float.fromhex(x) for x in r["sorted_weights"]]
                  for r in (ra, rb))
        weights = max([weights] + [abs(x - y) for x, y in zip(wa, wb)])
        ea, eb = (float.fromhex(r["reconstruction_error"]) for r in (ra, rb))
        errors = max(errors, abs(ea - eb))
        largest = [max(largest[0], ea), max(largest[1], eb)]
    return (f"decompositions moved: sorted weights by at most {weights:.2e}, "
            f"reconstruction errors by at most {errors:.2e} (largest "
            f"{largest[0]:.2e} before, {largest[1]:.2e} after)")


def compare(before, after):
    with open(before) as fh:
        a = json.load(fh)["records"]
    with open(after) as fh:
        b = json.load(fh)["records"]
    fields = ("verdict", "qubit_like", "cross", "margin", "pt_eigenvalues",
              "witness_count", "witnesses", "decomposition")
    differing = {field: 0 for field in fields}
    for key in sorted(set(a) & set(b)):
        for field in fields:
            differing[field] += a[key].get(field) != b[key].get(field)
    missing = len(set(a) ^ set(b))
    entangled = sum(rec["verdict"] == "entangled" for rec in a.values())
    empty = sum(rec.get("witness_count") == 0 for rec in a.values())
    witnesses = sum(rec.get("witness_count", 0) for rec in a.values())
    head = (f"{len(a)} evaluations ({len(a) - entangled} separable, "
            f"{entangled} entangled of which {empty} with no witness), "
            f"{witnesses} witnesses: ")
    bad = [f"{field} in {count}" for field, count in differing.items() if count]
    if missing:
        bad.append(f"{missing} evaluations in only one record")
    if bad:
        print(head + "DIFFER: " + ", ".join(bad))
        if differing["decomposition"]:
            print(decomposition_moves(a, b))
        return 1
    print(head + "verdicts, norms, margins, PT eigenvalues, witness lists "
          "and decompositions bit-identical")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="record the outputs of one checkout")
    p.add_argument("out")
    p.add_argument("--src", default=Path(__file__).resolve().parent.parent / "src")
    p = sub.add_parser("compare", help="compare two records field by field")
    p.add_argument("before")
    p.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out, args.src)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
