"""Discrete-event Monte Carlo of the breeding timeline.

Replays the heralded protocol pulse by pulse: every sequence consumes
three heralds (trap, breed, phase trigger), the electronics are only
live for a dead-time fraction of first heralds, and a breed succeeds
when the second herald lands inside the storage window and the
quadrature measurement passes. The long-run rate must match the
closed-form model.
"""

from collections import Counter
from dataclasses import replace

import numpy as np

from catbreed import (EVENT_RECORDS, ProtocolConfig, generation_rate,
                      pipeline_states, simulate_timeline)

DURATION_S = 0.05


def main():
    config = replace(ProtocolConfig(), beta_elec=0.73, rng_seed=42)
    stats, events = simulate_timeline(config, DURATION_S)

    print(f"simulated {DURATION_S * 1e3:.0f} ms "
          f"({stats.attempts} three-herald sequences)")
    print(f"successes          {stats.successes}")
    print(f"estimated rate     {stats.estimated_rate_hz:.1f} Hz")

    p_mean = pipeline_states(config).mean_condition_probability
    print(f"closed-form rate   {generation_rate(config, p_mean):.1f} Hz")

    print(f"mean storage gap   {stats.mean_first_photon_storage:.2f} trips")
    print(f"mean cat fidelity  {stats.mean_output_fidelity:.4f} "
          f"(after readout)")

    # the log is columns; its record codes index EVENT_RECORDS
    kinds, fails = Counter(), Counter()
    counts = np.bincount(events.record, minlength=len(EVENT_RECORDS))
    for (kind, reason, _), count in zip(EVENT_RECORDS, counts.tolist()):
        if count:
            kinds[kind] += count
            if kind == "condition_fail":
                fails[reason] += count

    print("\nevent counts:")
    for kind, count in sorted(kinds.items()):
        print(f"  {kind:<16} {count}")

    print("\nwhy breeds were rejected:")
    for reason, count in sorted(fails.items()):
        print(f"  {reason:<28} {count}")


if __name__ == "__main__":
    main()
