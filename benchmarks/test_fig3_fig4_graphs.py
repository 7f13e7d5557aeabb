"""Figures 3 & 4 — CRG and ODG of the bank example in VCG format.

Checks the structural facts the paper calls out: the export edge caused by
``openAccount(Account)``, the import edge caused by ``getCustomer``
returning an Account, the ``*``-summary Account instances created inside
``initializeAccounts``'s loop, and the partition annotations on Figure 4.
"""

from __future__ import annotations

from bench_utils import write_artifact

from repro.api import Experiment
from repro.harness.figures import fig3_fig4


def test_fig3_fig4_artifacts(benchmark, out_dir):
    crg_vcg, odg_vcg = benchmark.pedantic(lambda: fig3_fig4("test"), rounds=1, iterations=1)
    write_artifact(out_dir, "fig3_crg.vcg", crg_vcg)
    write_artifact(out_dir, "fig4_odg.vcg", odg_vcg)
    assert crg_vcg.startswith("graph: {")
    assert odg_vcg.startswith("graph: {")
    assert 'label: "export"' in crg_vcg
    assert 'label: "import"' in crg_vcg
    assert 'label: "use"' in crg_vcg
    # Figure 4 annotates each object label with its partition number
    assert "[0]" in odg_vcg and "[1]" in odg_vcg
    assert "create" in odg_vcg


def test_bank_relations_match_paper():
    a = Experiment.from_options("bank").analyze()
    crg = a.crg
    # "The export edge occurs due to the invocation of the openAccount
    #  method on the dynamic Bank class with an Account class as parameter."
    assert crg.has_edge("ST_BankMain", "DT_Bank", "export", "Account")
    # "The import edge occurs due to the getCustomer invocation that returns
    #  a result of Account type."
    assert crg.has_edge("ST_BankMain", "DT_Bank", "import", "Account")
    # summary instance: accounts created inside the initializeAccounts loop
    labels = [obj.label for obj in a.odg.objects]
    assert "*DT_Account" in labels
    assert "1DT_Bank" in labels
    assert any(lbl == "1DT_Account" for lbl in labels)
