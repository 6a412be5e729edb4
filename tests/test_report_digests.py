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
    'group-batch: carnot derivative': (0, 'd473d4a26a1c000f53ce8f6bf2a7296cf9eb378c23c28640661ecc635d163c8f'),
    'group-batch: carnot divide': (0, '46a8f31a909b4ee047ae552a86ed9c16dc68301b24b67b82c8fc73ccb827ee92'),
    'group-batch: carnot reconstruct': (0, '7acd5bef569263eb23bba43edf2d8d151b3daa1d75a5044c626be5378bfe97aa'),
    'group-batch: carnot symmetric': (0, '9f67807964bd90e4b3123d257599777ac4464d894bab8cacc61aa38fc3bc5004'),
    'group-batch: dihedral axioms': (0, '4388eb732d634d8c9a1d7d74fc22f7af5e0fdfc48a0969bc5679b7892f1536cb'),
    'group-batch: dihedral divide': (0, '921566731c6367b47619890b4dc9e1b50425b0f00f4d315dad163d3b66383cde'),
    'group-batch: dihedral symmetric': (0, 'fc20bf193e26e90e67377527ba790637ecae8e64148b594b3377458a7acd423d'),
    'group-batch: engel axioms': (0, 'ad5dc5ee94fd8806a39f7a3d5ef91fbd345ac74793e3c0a28bc4fe0bc0f1123f'),
    'group-batch: engel converge': (0, 'a4be81c7005933ab6749bba4a9f2610f3d3aa477dbb8ad90f00af7c9bbe1043c'),
    'group-batch: engel derivative': (0, '2a9c512956a02e566412d339a3d5f10c819533e2fbb7faf1551dcaac81c3704d'),
    'group-batch: engel divide': (0, '42484445967f1fa08647291c07ccfeed50353dd7d3617355ec97a0caf29bc60e'),
    'group-batch: engel reconstruct': (0, '79533f784753f4fc26852559a15fb37135740306daae3cf9a840c4d36dbc3a10'),
    'group-batch: engel symmetric': (0, 'f5744cdd50f6b7cb7e24db812cf1b947bebaffe9dcbba2859e2e62a57b1df08e'),
    'group-batch: euclidean axioms': (0, 'eace195219682915d21a0ff59c422afa9a06f14a57fb42322b0be5b6cf8141b2'),
    'group-batch: euclidean converge': (0, '2514ee624e4eead73ed27330ebef8b596d0f78c214a70a16fd854897edfd4df0'),
    'group-batch: euclidean derivative': (0, 'beb10be5652fd23b6feb8e8b1652f6c14c62b45d52e17385cd9df1cbf9fda149'),
    'group-batch: euclidean divide': (0, '231a8e66e1f242e4593e65d181e55b906a65b7d5d9482490f379fb0c6b6ecc10'),
    'group-batch: euclidean reconstruct': (0, 'e7c3937c9b2da297a0cdeed1785a33d354780b41411f6059f93e888a5321c03b'),
    'group-batch: euclidean symmetric': (0, '330eb36a3ef1b4f0819f5f2a3065c14c8074014dc971b4380d4214ecf1768672'),
    'group-batch: heisenberg axioms': (0, '50ab7949323af4d65212e4814b99eaacea9a652fc881f1e3047df904f3a50b07'),
    'group-batch: heisenberg converge': (0, 'cb4a0d52813821605ee56658f74d2f1602628d7aae0c64a8aa5425f3de2c7ade'),
    'group-batch: heisenberg derivative': (0, 'f5177454c6a0d6cd82a7188b9c1f0e28073048faea64519007e0348f265e8eee'),
    'group-batch: heisenberg divide': (0, '3c7d18453737fd6e7a9dd0df808d5d3407c651089314f9b5a5e4d4626f304b92'),
    'group-batch: heisenberg reconstruct': (0, 'ac2b2a81a41dd433590ca39c7febb55b9e82c5599f3eb2367e75fce272c7a3d7'),
    'group-batch: heisenberg symmetric': (0, '392d12b9f7e03b38f68ea3f629daf7f08455d66afba45b33b73c68c8b42d1020'),
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
    'nonlinear-deep: perturbed derivative': (0, '835bf9cc064dc0afe7a3eb621bc5529f6ee127da8f62e1c0de5f0014e91eb04e'),
    'nonlinear-deep: perturbed divide': (0, '95a32a13f7bfeb86e82fd03dce837e086817b6ef469553f2570f9eacd9c96c57'),
    'nonlinear-deep: perturbed reconstruct': (1, '098facaa857481214f5fe2f98845cf12bc6a483b7e45c21b233d9dc2df0993d3'),
    'nonlinear-deep: perturbed symmetric': (0, '5be0cf34df7ed2a3bbea6ee3f46841511a017e437dd54abef556925d6c9fcfec'),
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
