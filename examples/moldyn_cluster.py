"""Distributing a compute-heavy workload over heterogeneous clusters.

The molecular-dynamics kernel (JGF MolDyn) is distributed over:
  1. the paper's testbed (1.7 GHz + 800 MHz, 100 Mb Ethernet),
  2. a three-node cluster with a fast server and two slow edge devices,
  3. the same testbed over an 802.11b wireless link (the mobile-device
     scenario the paper's introduction motivates).

For each configuration the script reports placement, message traffic and
speedup against sequential execution on the slowest machine.

Run:  python examples/moldyn_cluster.py
"""

from repro.api import ClusterConfig, Experiment, ExperimentConfig


def run_config(label: str, config: ExperimentConfig) -> None:
    exp = Experiment(config)
    res = exp.run()  # raises if distribution changed the answer
    baseline_node = min(exp.cluster().nodes, key=lambda n: n.cpu_hz)
    print(f"== {label}")
    print(f"   placement: {res.plan.class_home} (main on node {res.plan.main_partition})")
    print(f"   sequential on {baseline_node.name}: {res.sequential_s*1e3:8.2f} ms")
    print(f"   distributed on {res.plan.nparts} nodes:      {res.distributed_s*1e3:8.2f} ms")
    print(f"   messages: {res.messages}, bytes: {res.bytes}")
    print(f"   speedup: {res.speedup_pct:.1f}%\n")


def main() -> None:
    run_config(
        "paper testbed: P3 1.7 GHz + P3 800 MHz, 100 Mb Ethernet",
        ExperimentConfig.from_options("moldyn", size="bench"),
    )
    run_config(
        "edge deployment: 2.4 GHz server + two 400 MHz devices",
        ExperimentConfig.from_options("moldyn", size="bench", nparts=3).replace(
            cluster=ClusterConfig(speeds=(2.4e9, 400e6, 400e6))
        ),
    )
    run_config(
        "mobile scenario: same two machines over 802.11b wireless",
        ExperimentConfig.from_options(
            "moldyn", size="bench", network="wireless_80211b"
        ),
    )


if __name__ == "__main__":
    main()
