#!/usr/bin/env python3
"""Section 2.2's economics, analytically and by simulation.

First evaluates the paper's closed-form break-even analysis (how much flash
matches a DRAM upgrade), then validates it empirically by spending the same
simulated dollars on DRAM vs flash and measuring the throughput each buys
(the paper's Table 5).

Run:  python examples/cost_effectiveness.py
"""

from __future__ import annotations

from repro import CachePolicy, ExperimentRunner, scaled_reference_config
from repro.analysis.costmodel import breakeven_exponent, breakeven_theta, roi_ratio
from repro.storage.profiles import (
    DRAM_TO_FLASH_PRICE_RATIO,
    HDD_CHEETAH_15K,
    MLC_SAMSUNG_470,
)
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH

TRANSACTIONS = 1_500


def analysis() -> None:
    print("— Closed form (Section 2.2) —")
    for label, read_fraction in (("read-only", 1.0), ("write-only", 0.0)):
        exponent = breakeven_exponent(HDD_CHEETAH_15K, MLC_SAMSUNG_470, read_fraction)
        theta = breakeven_theta(0.5, HDD_CHEETAH_15K, MLC_SAMSUNG_470, read_fraction)
        roi = roi_ratio(0.5, HDD_CHEETAH_15K, MLC_SAMSUNG_470,
                        DRAM_TO_FLASH_PRICE_RATIO, read_fraction)
        print(f"  {label:11s}: exponent {exponent:.4f}  "
              f"(flash matching a +50% DRAM upgrade: theta = {theta:.3f})  "
              f"ROI at 10:1 $/GB = {roi:.1f}x")
    print("  -> the exponent is barely above 1, so flash substitutes for")
    print("     DRAM almost 1:1 in hit-rate benefit at a tenth of the price.\n")


def simulation() -> None:
    print("— Simulation (the paper's Table 5 mechanism) —")
    db_pages = estimate_db_pages(BENCH)
    dram_step = max(16, int(db_pages * 0.004))  # "200 MB" at our scale
    flash_step = int(dram_step * DRAM_TO_FLASH_PRICE_RATIO)  # same dollars

    def run(buffer_pages: int, cache_pages: int) -> float:
        if cache_pages:
            config = scaled_reference_config(
                db_pages, policy=CachePolicy.FACE_GSC
            ).with_(buffer_pages=buffer_pages, cache_pages=cache_pages,
                    segment_entries=max(64, cache_pages // 16))
        else:
            config = scaled_reference_config(
                db_pages, cache_fraction=0.01, policy=CachePolicy.NONE
            ).with_(buffer_pages=buffer_pages)
        runner = ExperimentRunner(config, BENCH, seed=42)
        runner.warm_up()
        return runner.measure(TRANSACTIONS).tpmc

    for step in (1, 3, 5):
        dram = run(dram_step + step * dram_step, 0)
        flash = run(dram_step, step * flash_step)
        print(f"  spend x{step}:  more DRAM -> {dram:7,.0f} tpmC   "
              f"more flash -> {flash:7,.0f} tpmC   ({flash / dram:.1f}x)")
    print("  -> every simulated dollar goes further in flash, as in Table 5.")


def main() -> None:
    analysis()
    simulation()


if __name__ == "__main__":
    main()
