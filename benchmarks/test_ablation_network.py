"""Ablation — interconnect sensitivity (DESIGN.md §5; the paper's §1
motivates deployment from 100 Mb LANs down to constrained wireless devices).

The same distributed crypt run over 1 Gb Ethernet, 100 Mb Ethernet and
802.11b wireless: speedup must degrade monotonically as the link gets worse,
while results stay identical.
"""

from __future__ import annotations

from bench_utils import write_artifact

from repro.api import Experiment

#: (row label, network preset) — the paper testbed's two machines over each
LINKS = [
    ("1G ethernet", "ethernet_1g"),
    ("100M ethernet", "ethernet_100m"),
    ("802.11b", "wireless_80211b"),
]


def test_network_sensitivity(benchmark, out_dir):
    def run():
        out = []
        for label, network in LINKS:
            res = Experiment.from_options(
                "crypt", size="bench", network=network
            ).run()
            out.append((label, res.speedup_pct, res.messages))
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: link sensitivity (crypt, 2 nodes)"]
    for label, pct, msgs in rows:
        lines.append(f"  {label:>14}: speedup={pct:7.1f}%  messages={msgs}")
    write_artifact(out_dir, "ablation_network.txt", "\n".join(lines))

    speedups = [pct for _, pct, _ in rows]
    # faster links never hurt
    assert speedups[0] >= speedups[1] >= speedups[2]
    # crypt still wins on the paper's 100M testbed
    assert speedups[1] > 110.0
