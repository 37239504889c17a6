#!/usr/bin/env python3
"""Tour of the unified ``repro.api`` Session layer.

One Session owns the whole runtime configuration; declarative plans
compile onto the batched engines and yield columnar result frames.

Run with::

    python examples/session_api_tour.py
"""

from repro.api import Session
from repro.frontend.configs import BASELINE_FRONTEND, TAILORED_FRONTEND
from repro.trace.instruction import CodeSection


def main() -> None:
    # Explicit argument > REPRO_* environment variable > default,
    # resolved exactly once, here.
    session = Session(instructions=120_000)
    print("runtime config:", session.config.describe())

    # Pipeline stages as typed methods.
    trace = session.trace("FT")
    print(
        f"\nFT trace: {trace.instruction_count()} instructions, "
        f"{trace.branch_count()} branches"
    )
    baseline = session.frontend("FT", BASELINE_FRONTEND)
    print(f"baseline branch MPKI on FT: {baseline.branch.mpki:.2f}")

    # A declarative sweep plan: workloads x configs x sections.
    plan = session.sweep(
        workloads=["FT", "LU", "CoMD", "gobmk"],
        configs=[BASELINE_FRONTEND, TAILORED_FRONTEND],
        sections=(CodeSection.TOTAL,),
    )
    frame = plan.execute()
    print(f"\nsweep frame: {len(frame)} rows, columns {frame.columns}")
    tailored = frame.select(config="tailored")
    for workload, mpki in zip(
        tailored.column("workload"), tailored.column("branch_mpki")
    ):
        print(f"  tailored branch MPKI on {workload}: {mpki:.2f}")

    # Any registered paper artefact, store-backed: execute() returns the
    # experiment's stored primary frame (table3's per-structure rows).
    table3 = session.experiment("table3").execute()
    print("\nTable III via the orchestrator:")
    print(table3.to_csv())


if __name__ == "__main__":
    main()
