"""Benchmark the numba kernels against the pure-numpy fallback.

Usage::

    python3 benchmarks/bench_backend.py [--repeats 200]

Times the three hot kernels (joint-state assembly, partial transpose,
3x3 minor grid) for a range of system/environment sizes under both
implementations and prints a speedup table.  The numba column is absent
when numba is not installed.
"""

import argparse
import time

import numpy as np

from dephasing import backend


def _rand_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _joint_inputs(rng, n, m):
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c /= np.linalg.norm(c)
    ws = np.stack([_rand_unitary(rng, m) for _ in range(n)])
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    r0 = g @ g.conj().T
    r0 /= np.trace(r0).real
    return c, ws, r0


def _time(fn, repeats):
    fn()  # warm up (numba compiles on first call)
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def bench(repeats):
    rng = np.random.default_rng(0)
    impls = backend.IMPLEMENTATIONS
    names = list(impls)
    rows = []

    for n, m in ((3, 3), (4, 8), (6, 16), (8, 32)):
        c, ws, r0 = _joint_inputs(rng, n, m)
        times = {name: _time(lambda name=name: impls[name]["assemble_joint"](
            c, ws, r0), repeats) for name in names}
        rows.append((f"assemble_joint N={n} M={m}", times))

        rho = np.ascontiguousarray(impls["numpy"]["assemble_joint"](c, ws, r0))
        times = {name: _time(lambda name=name: impls[name]["partial_transpose"](
            rho, n, m, True), repeats) for name in names}
        rows.append((f"partial_transpose N={n} M={m}", times))

    for m in (4, 16, 48):
        p = rng.random(m)
        p /= p.sum()
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ci, cj, cl = amps / np.linalg.norm(amps)
        times = {name: _time(lambda name=name: impls[name]["minor_grid"](
            ci, cj, cl, p, u, x), repeats) for name in names}
        rows.append((f"minor_grid M={m}", times))

    width = max(len(label) for label, _ in rows)
    header = f"{'kernel':<{width}}  " + "".join(f"{name:>12}" for name in names)
    if len(names) > 1:
        header += f"{'speedup':>10}"
    print(f"backend selected at import: {backend.BACKEND}")
    print(header)
    print("-" * len(header))
    for label, times in rows:
        line = f"{label:<{width}}  " + "".join(
            f"{times[name] * 1e6:>10.1f}us" for name in names)
        if len(names) > 1:
            line += f"{times['numpy'] / times['numba']:>9.1f}x"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=200)
    bench(parser.parse_args().repeats)


if __name__ == "__main__":
    main()
