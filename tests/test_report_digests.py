"""Every benchmark cell's CSV report, pinned by its SHA-256.

The benchmark in ``perfbench/`` runs the CLI at fixed settings: the
``group-batch`` and ``nonlinear-deep`` cells and the untimed
hyperbolic-defaults probe.  A change that only reorganises or speeds up
the code must leave every one of those reports byte-identical; this test
holds each report to the digest in ``DIGESTS``.

A change that moves a report on purpose, or changes the cells in
``perfbench/workloads.py``, updates the table and names each moved cell
and the reason in CHANGES.md.  To print the table for the tree
at hand, run from the repository root::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cell: (exit code, SHA-256 of the CSV report)
DIGESTS = {
    'group-batch: carnot axioms': (1, '043fe48d3ddb81dad7a7b10d6cb0a8a7cc7f91cdcf6e0f0e4fb2c6f0c44320c3'),
    'group-batch: carnot converge': (0, '6959f6bea38c9fd5ae60ea42338180bc5d8fe3bb1b9a3c74d6ebcd3acfe6bc1d'),
    'group-batch: carnot derivative': (0, '6e91015d080adf247a37a692f06270b79808d122aa764e56475052d49acc9a66'),
    'group-batch: carnot divide': (0, 'c34e3533ed119cbdcdaa4c742ab76471e05980dcd4c9afc5d43f2dc037467860'),
    'group-batch: carnot reconstruct': (0, 'de4fe65e10fe39aaf1dbe7ea2aa40c948f32dccb6147b3ea3f75412f1e0a0394'),
    'group-batch: carnot symmetric': (0, '1b266428e1fc2301488ed92c36ab905ffb641b2b185b9f4ca2a6a8d62b0c76be'),
    'group-batch: dihedral axioms': (0, '4388eb732d634d8c9a1d7d74fc22f7af5e0fdfc48a0969bc5679b7892f1536cb'),
    'group-batch: dihedral divide': (0, '921566731c6367b47619890b4dc9e1b50425b0f00f4d315dad163d3b66383cde'),
    'group-batch: dihedral symmetric': (0, 'fc20bf193e26e90e67377527ba790637ecae8e64148b594b3377458a7acd423d'),
    'group-batch: engel axioms': (0, 'ad5dc5ee94fd8806a39f7a3d5ef91fbd345ac74793e3c0a28bc4fe0bc0f1123f'),
    'group-batch: engel converge': (0, 'a4be81c7005933ab6749bba4a9f2610f3d3aa477dbb8ad90f00af7c9bbe1043c'),
    'group-batch: engel derivative': (0, 'ef55d75d40c6ce843cb21ba4e234f96841aa553d43a906d8d5093f3ba43314b4'),
    'group-batch: engel divide': (0, 'b1fc065c8b2521efa8a3e542d39470f68e841119036c59a0cc19c3f752fc07b7'),
    'group-batch: engel reconstruct': (0, 'db0d4ac1d193c305b902eb874130e824b1329e41b52ddc54477def4f1fe4e361'),
    'group-batch: engel symmetric': (0, '25de154067e192e7a5b57d6bc099ef2a4acc66e6edb61b379895f21d7e5cd48f'),
    'group-batch: euclidean axioms': (0, 'eace195219682915d21a0ff59c422afa9a06f14a57fb42322b0be5b6cf8141b2'),
    'group-batch: euclidean converge': (0, '2514ee624e4eead73ed27330ebef8b596d0f78c214a70a16fd854897edfd4df0'),
    'group-batch: euclidean derivative': (0, '441e13925352b7619a2bef512f9e328ecd8f87f09dbc1f15105c4891dbec46cc'),
    'group-batch: euclidean divide': (0, '6715c9e5bc662c35a852591a1eddc014e4067816c7c8735fac9cf139f1a4594c'),
    'group-batch: euclidean reconstruct': (0, 'de7bf7f6e996226cca2ff4e0f7868d51ef91a033c4d5bca7309e57609f80ba2d'),
    'group-batch: euclidean symmetric': (0, '9d61959e3b32cd4b70759dee8b183c9b8975814e1fbe14ba2c72c7235479adfa'),
    'group-batch: heisenberg axioms': (0, '50ab7949323af4d65212e4814b99eaacea9a652fc881f1e3047df904f3a50b07'),
    'group-batch: heisenberg converge': (0, 'cb4a0d52813821605ee56658f74d2f1602628d7aae0c64a8aa5425f3de2c7ade'),
    'group-batch: heisenberg derivative': (0, 'dd135832054f3766c3e27e296c24bed3ec26e97622f69a599d08a27b96d6e85a'),
    'group-batch: heisenberg divide': (0, 'b100b6ff5393c57f68907ec1087aec13d91edd259737da0457dd8fdc544e4f7b'),
    'group-batch: heisenberg reconstruct': (0, 'cced543d3bf01c5f104e75657491f0605f7cb8283229363ba1f5c9d80c58c170'),
    'group-batch: heisenberg symmetric': (0, '5b3551d1dee892bcdf2f983326ec1f6bee04c99eb0b68cb0c12e0ae26d7ea0cf'),
    'hyperbolic-defaults: hyperbolic axioms': (1, '1fe6d9a9d54e5deeef218629f0a7a870cdb5ea82a7c2d668adc444dcb261b7e3'),
    'hyperbolic-defaults: hyperbolic converge': (1, 'd1f51b2d60a3f4805765697028a1ca19b3b10cf6962864355197f6bb92407120'),
    'hyperbolic-defaults: hyperbolic derivative': (1, 'fca5ef403059945f4912f217b31ccc52e18155d7d6b67c439f86cfa1311947e0'),
    'hyperbolic-defaults: hyperbolic divide': (1, '9f87afb8937ff0020d4060647c3be8ab630c4c556d56ddded77b35e048f91356'),
    'hyperbolic-defaults: hyperbolic reconstruct': (1, 'a6e646ce04ea51b50864f76d2062c398568493b7fd9658f397de9f8ddec853e0'),
    'hyperbolic-defaults: hyperbolic symmetric': (0, '8e4fed0047007e120129b498abae3c9402cb9bda6f575969dd3a14ec44ce1604'),
    'nonlinear-deep: hyperbolic axioms': (0, 'e407c4d0d7ab26656966d4b44ff5a2689c4a88c3ca5882f0b3c91a6acc680fbd'),
    'nonlinear-deep: hyperbolic converge': (0, 'bace98ebb03adafc340bf8cc2048bd2f9d3454a768af30ece4c443c21d558dcd'),
    'nonlinear-deep: hyperbolic derivative': (0, '8718e382b76f1fa2810b6cf0c0568534c11fef47a93270af7c9955d5ea39a01f'),
    'nonlinear-deep: hyperbolic divide': (0, 'c0415f551777b3ed127f68b366e074747ecddf756996f68320c762cabbc52220'),
    'nonlinear-deep: hyperbolic reconstruct': (1, 'a6e646ce04ea51b50864f76d2062c398568493b7fd9658f397de9f8ddec853e0'),
    'nonlinear-deep: hyperbolic symmetric': (0, '8e4fed0047007e120129b498abae3c9402cb9bda6f575969dd3a14ec44ce1604'),
    'nonlinear-deep: perturbed axioms': (0, 'd5d64f32724b89476b31cb231460929bbd7c1c4322a9c506bdead55446944fc5'),
    'nonlinear-deep: perturbed converge': (0, '714ec81496a73f922fce0afabcfe12a6635601b0e4874929f4f38e4c45ef2376'),
    'nonlinear-deep: perturbed derivative': (0, '302ca99886f1a3d07812e4cfb6ad64a256befb404099a29e39a54d090e53d8e2'),
    'nonlinear-deep: perturbed divide': (0, '95a32a13f7bfeb86e82fd03dce837e086817b6ef469553f2570f9eacd9c96c57'),
    'nonlinear-deep: perturbed reconstruct': (1, '098facaa857481214f5fe2f98845cf12bc6a483b7e45c21b233d9dc2df0993d3'),
    'nonlinear-deep: perturbed symmetric': (0, '988beb340e53da0bf62a3fb726649e19304f36ee484beeb6d7fa9796fbabef39'),
}


def _digests():
    workloads = importlib.import_module("perfbench.workloads")
    out = {}
    for workload in (workloads.GROUP_BATCH, workloads.NONLINEAR_DEEP,
                     workloads.HYPERBOLIC_DEFAULTS):
        for cell in workload.cells:
            code, report, _ = workloads.run_cell(cell)
            out[f"{workload.name}: {cell.label()}"] = (
                code, hashlib.sha256(report.encode()).hexdigest())
    return out


def test_reports_match_their_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.chdir(ROOT)  # cell configs are relative to the repository
    got = _digests()
    assert sorted(got) == sorted(DIGESTS)
    moved = sorted(cell for cell in DIGESTS if got[cell] != DIGESTS[cell])
    assert not moved, moved


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    for cell, (code, digest) in sorted(_digests().items()):
        print(f"    {cell!r}: ({code}, {digest!r}),")
