#!/usr/bin/env python3
"""Pre-train the Priority and MBR control planes and estimate capabilities.

Each plane holds one goal-conditioned tabular Q-agent per intent; the other
plane's knobs stay at defaults during training. The resulting logs yield the
capability vector (per-goal-rung success probability) for every agent.
"""

import numpy as np

from atmarl.agents import PretrainConfig, SystemKind, estimate_capabilities, pretrain_system
from atmarl.config import default_scenario


def main():
    cfg = default_scenario()
    rng = np.random.default_rng(1001)
    params = PretrainConfig()  # the campaign's 600 episodes: with fewer the MBR plane misses the reward floor

    logs = []
    for system in (SystemKind.PRIORITY, SystemKind.MBR):
        result = pretrain_system(system, cfg, rng, params)
        logs.extend(result.logs)
        print(f"{system.value} plane: {len(result.qtables)} agents, "
              f"final mean reward {result.mean_recent_reward:.3f}, converged={result.converged}")

    caps = estimate_capabilities(logs, cfg)
    print("\nCapability vectors (probability of reaching each goal rung within 5 steps):")
    for key, vec in sorted(caps.items()):
        rhos = " ".join(f"{r:.2f}" for r in vec.rho)
        print(f"  {key:<12} [{rhos}]")
    print("\nHigh rungs of QoE and low rungs of packet loss are the hard goals;")
    print("the supervisor reads these vectors when assigning sub-goals.")


if __name__ == "__main__":
    main()
