"""Regenerate ``reference.json``, the stored outputs the checks compare to.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when a change is meant to alter the reported numbers, and
say so in the change: every later benchmark run is checked against it.
"""
from __future__ import annotations

import json

import opradius
import opradius.elliptic  # noqa: F401  (not imported by the package itself)

import workloads


def fuzz_reference() -> dict:
    config = opradius.ensembles.EnsembleConfig(trials=workloads.FUZZ_TRIALS,
                                               master_seed=workloads.REFERENCE_SEED)
    status = [[] for _ in range(config.trials)]
    margins = [[] for _ in range(config.trials)]

    def observer(trial, report):
        status[trial].append(report.status[0])
        margins[trial].append(report.margin)
    report = opradius.harness.run_fuzz(config, observer=observer)
    return {"seed": config.master_seed, "trials": config.trials,
            "status": ["".join(s) for s in status], "margins": margins,
            "entries": {k: [v.applicable, v.violations, v.flagged]
                        for k, v in report.entries.items()}}


def large_reference() -> dict:
    fun, spc = opradius.functionals, opradius.space
    out = {}
    for N in workloads.ELLIPTIC_NS:
        case = opradius.elliptic.run_case(N)
        out[f"N{N}"] = {k: case[k] for k in ("lhs", "rhs", "w_S")}
    wl = workloads.Large(opradius)
    for r in workloads.LARGE_RANKS:
        A0, T0 = wl.templates[r]
        sp = spc.build_space(A0)
        out[f"r{r}"] = {"norm": fun.operator_a_norm(sp, T0),
                        "radius": fun.a_numerical_radius(sp, T0).value,
                        "crawford": fun.a_crawford(sp, T0)}
    return out


def main():
    ref = {"fuzz-small": fuzz_reference(), "large": large_reference()}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
