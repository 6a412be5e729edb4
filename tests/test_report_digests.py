"""Every benchmark cell's CSV report, pinned by its SHA-256.

The benchmark in ``perfbench/`` runs the CLI at fixed settings: the
``group-batch`` and ``nonlinear-deep`` cells and the untimed
hyperbolic-defaults probe.  A change that only reorganises or speeds up
the code must leave every one of those reports byte-identical; this test
holds each report to the digest in ``DIGESTS``.

Next to each digest the table spells out the report's verdict column,
one ``identity@k`` per row in report order (``identity`` alone for a row
without a level), a failing row marked ``!``.  A digest only says that a
report moved; the verdicts say whether a row changed its verdict, so a
regenerated table cannot hide a flip.

A change that moves a report on purpose, or changes the cells in
``perfbench/workloads.py``, updates the table and names each moved cell
and the reason in CHANGES.md.  To print the table for the tree
at hand, run from the repository root::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import csv
import hashlib
import importlib
import io
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cell: (exit code, SHA-256 of the CSV report, verdict column)
DIGESTS = {
    'group-batch: carnot axioms': (
        1, 'b7ae76c28d612787a29f3823aabb889172525bcec8b04b887005734a7f23fd29',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j !3.5k P1 P2'),
    'group-batch: carnot converge': (
        0, '30a839a7169cd6a6c9ea2a29ad9828159070fd5109b17318d50a2674f1c49f10',
        '4.6-dif@33 4.6-inv@33 4.6-sum@33 5.1-dif@33 5.1-inv@33 5.1-sum@33'),
    'group-batch: carnot derivative': (
        0, 'd473d4a26a1c000f53ce8f6bf2a7296cf9eb378c23c28640661ecc635d163c8f',
        'Tf-delta@4 Tf-id@4 Tf-morphism'),
    'group-batch: carnot divide': (
        0, '15d957f4d58e088c6271d0e5aa87b2b03933ac3c6b92f37ede6efa9a25affa3d',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-limit@30 6.3-loop@-1 6.3-loop@1 '
        '6.3-loop@2 6.3-loop@3 6.3-prefactor@30'),
    'group-batch: carnot reconstruct': (
        0, '95edd40a58bc163d2aa84263b943c45ed2a319da19e3c86fa2e8133d8daf9931',
        '6.1 6.1i 6.1ii 6.1iii 6.2'),
    'group-batch: carnot symmetric': (
        0, 'b5fd00b714c8581776078980beccec651b60d7e5493b48b5f80d4533688d18ed',
        '6.5 6.6 6.8 6.8-oracle L1 L2 L2-underline L3 L4'),
    'group-batch: dihedral axioms': (
        0, '4388eb732d634d8c9a1d7d74fc22f7af5e0fdfc48a0969bc5679b7892f1536cb',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'group-batch: dihedral divide': (
        0, '921566731c6367b47619890b4dc9e1b50425b0f00f4d315dad163d3b66383cde',
        '6.3@-1 6.3@1 6.3@3 6.3-loop@-1 6.3-loop@1 6.3-loop@3'),
    'group-batch: dihedral symmetric': (
        0, 'fc20bf193e26e90e67377527ba790637ecae8e64148b594b3377458a7acd423d',
        '6.5'),
    'group-batch: engel axioms': (
        0, '52382e0f929f66e0c3daae75c63d301fed00545fb122c84214739f81cc75f768',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'group-batch: engel converge': (
        0, 'acf1df79bd4a267978a3002a46590db072863f268260af95411ff0fa488f9955',
        '4.6-dif@33 4.6-inv@32 4.6-sum@32 5.1-dif@33 5.1-inv@32 5.1-sum@32'),
    'group-batch: engel derivative': (
        0, '2a9c512956a02e566412d339a3d5f10c819533e2fbb7faf1551dcaac81c3704d',
        'Tf-delta@4 Tf-id@4 Tf-morphism'),
    'group-batch: engel divide': (
        0, '8a9e3a18ef5b4292c1dfe22d96971a0fe9267e18dfdaa50598fd5449b870b272',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-limit@30 6.3-loop@-1 6.3-loop@1 '
        '6.3-loop@2 6.3-loop@3 6.3-prefactor@30'),
    'group-batch: engel reconstruct': (
        0, '02b2bd3722838e9a7912b35f39e9cd507cacac13eb081a011185f406f8ccd862',
        '6.1 6.1i 6.1ii 6.1iii 6.2'),
    'group-batch: engel symmetric': (
        0, '390251150f21c6791f44889c836e7221dc50f8ba0a47c1efe0b270db2cb4acea',
        '6.5 6.6 6.8 6.8-oracle L1 L2 L2-underline L3 L4'),
    'group-batch: euclidean axioms': (
        0, 'eace195219682915d21a0ff59c422afa9a06f14a57fb42322b0be5b6cf8141b2',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'group-batch: euclidean converge': (
        0, '2514ee624e4eead73ed27330ebef8b596d0f78c214a70a16fd854897edfd4df0',
        '4.6-dif@31 4.6-inv@31 4.6-sum@31 5.1-dif@31 5.1-inv@31 5.1-sum@31'),
    'group-batch: euclidean derivative': (
        0, 'beb10be5652fd23b6feb8e8b1652f6c14c62b45d52e17385cd9df1cbf9fda149',
        'Tf-delta@4 Tf-id@4 Tf-morphism'),
    'group-batch: euclidean divide': (
        0, '231a8e66e1f242e4593e65d181e55b906a65b7d5d9482490f379fb0c6b6ecc10',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-limit@30 6.3-loop@-1 6.3-loop@1 '
        '6.3-loop@2 6.3-loop@3 6.3-prefactor@30'),
    'group-batch: euclidean reconstruct': (
        0, 'e7c3937c9b2da297a0cdeed1785a33d354780b41411f6059f93e888a5321c03b',
        '6.1 6.1i 6.1ii 6.1iii 6.2'),
    'group-batch: euclidean symmetric': (
        0, '330eb36a3ef1b4f0819f5f2a3065c14c8074014dc971b4380d4214ecf1768672',
        '6.5 6.6 6.8 6.8-iso 6.8-oracle L1 L2 L2-underline L3 L4'),
    'group-batch: heisenberg axioms': (
        0, '50ab7949323af4d65212e4814b99eaacea9a652fc881f1e3047df904f3a50b07',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'group-batch: heisenberg converge': (
        0, 'cb4a0d52813821605ee56658f74d2f1602628d7aae0c64a8aa5425f3de2c7ade',
        '4.6-dif@32 4.6-inv@31 4.6-sum@32 5.1-dif@32 5.1-inv@31 5.1-sum@32'),
    'group-batch: heisenberg derivative': (
        0, 'f5177454c6a0d6cd82a7188b9c1f0e28073048faea64519007e0348f265e8eee',
        'Tf-delta@4 Tf-id@4 Tf-morphism'),
    'group-batch: heisenberg divide': (
        0, 'eed3227931fb5f6edfb95551dbd07044aba65d3698e2427224cfb7389aee468c',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-limit@30 6.3-loop@-1 6.3-loop@1 '
        '6.3-loop@2 6.3-loop@3 6.3-prefactor@30'),
    'group-batch: heisenberg reconstruct': (
        0, 'ac2b2a81a41dd433590ca39c7febb55b9e82c5599f3eb2367e75fce272c7a3d7',
        '6.1 6.1i 6.1ii 6.1iii 6.2'),
    'group-batch: heisenberg symmetric': (
        0, 'ff465caf795d6d003a93724925277dff489aeac73a8f970167ed7315fff106a5',
        '6.5 6.6 6.8 6.8-oracle L1 L2 L2-underline L3 L4'),
    'hyperbolic-defaults: hyperbolic axioms': (
        1, '4e70328c63f18bedf432ced5143d4bd440cb4e2543f2722aadf587677a7a9767',
        '3.4a !3.4b !3.4c !3.4d !3.4e 3.4f 3.4g 3.5h 3.5i !3.5j !3.5k P1 P2'),
    'hyperbolic-defaults: hyperbolic converge': (
        0, 'bc6be3797d1f4480646fc0953f8218ad85a9716b09ba86669de3183f93006ab5',
        '5.1-dif@33 5.1-inv@31 5.1-sum@36'),
    'hyperbolic-defaults: hyperbolic derivative': (
        0, 'f9bd1f5ae5001ce874f5f0e1fe1fa25e05db5507915a22cc57dc4765e8aa89fc',
        'Tf-id@4 Tf-morphism'),
    'hyperbolic-defaults: hyperbolic divide': (
        0, '800132c0bb80ff2833673b86e9646a40a54b46be9597ef97bba0713539327086',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-loop@-1 6.3-loop@1 6.3-loop@2 '
        '6.3-loop@3 6.3-prefactor@30'),
    'hyperbolic-defaults: hyperbolic reconstruct': (
        1, 'a7716212be0a9be73331af57d626278134345a99ec6c65795572972e87dbdfd4',
        '!6.1'),
    'hyperbolic-defaults: hyperbolic symmetric': (
        0, '3eb83a9fb2da1a75509fbfd51b8c18270f3f6679dd28b2d43cd1c419e869431c',
        '6.5 6.6 6.8 6.8-iso 6.8-oracle L1 L2 L2-underline L3 L4'),
    'nonlinear-deep: hyperbolic axioms': (
        0, '9fa04a8afa38dbcc9976e252d81361d8155e537f3ece53acfe95a119e3af052b',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'nonlinear-deep: hyperbolic converge': (
        0, '028fa573e43e148aeb8d05b36c7d2e9110827b000ef4ea8fdeb8d154a37316b7',
        '5.1-dif@19 5.1-inv@19 5.1-sum@19'),
    'nonlinear-deep: hyperbolic derivative': (
        0, '9306b6ff1c9786972525ffa276b82092b38a1a83467d5f30d3b03358491c9752',
        'Tf-id@4 Tf-morphism'),
    'nonlinear-deep: hyperbolic divide': (
        0, '98aeb0e0bd96485aa425f73e47ee531870ec4f0dbf514d4d07c7f11ffa407450',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-loop@-1 6.3-loop@1 6.3-loop@2 '
        '6.3-loop@3 6.3-prefactor@30'),
    'nonlinear-deep: hyperbolic reconstruct': (
        1, 'a7716212be0a9be73331af57d626278134345a99ec6c65795572972e87dbdfd4',
        '!6.1'),
    'nonlinear-deep: hyperbolic symmetric': (
        0, '3eb83a9fb2da1a75509fbfd51b8c18270f3f6679dd28b2d43cd1c419e869431c',
        '6.5 6.6 6.8 6.8-iso 6.8-oracle L1 L2 L2-underline L3 L4'),
    'nonlinear-deep: perturbed axioms': (
        0, 'd5d64f32724b89476b31cb231460929bbd7c1c4322a9c506bdead55446944fc5',
        '3.4a 3.4b 3.4c 3.4d 3.4e 3.4f 3.4g 3.5h 3.5i 3.5j 3.5k P1 P2'),
    'nonlinear-deep: perturbed converge': (
        0, '714ec81496a73f922fce0afabcfe12a6635601b0e4874929f4f38e4c45ef2376',
        '5.1-dif@40 5.1-inv@40 5.1-sum@41'),
    'nonlinear-deep: perturbed derivative': (
        0, '835bf9cc064dc0afe7a3eb621bc5529f6ee127da8f62e1c0de5f0014e91eb04e',
        'Tf-delta@4 Tf-id@4 Tf-morphism'),
    'nonlinear-deep: perturbed divide': (
        0, '95a32a13f7bfeb86e82fd03dce837e086817b6ef469553f2570f9eacd9c96c57',
        '6.3@-1 6.3@1 6.3@2 6.3@3 6.3-loop@-1 6.3-loop@1 6.3-loop@2 '
        '6.3-loop@3 6.3-prefactor@30'),
    'nonlinear-deep: perturbed reconstruct': (
        1, '098facaa857481214f5fe2f98845cf12bc6a483b7e45c21b233d9dc2df0993d3',
        '!6.1'),
    'nonlinear-deep: perturbed symmetric': (
        0, '5be0cf34df7ed2a3bbea6ee3f46841511a017e437dd54abef556925d6c9fcfec',
        '6.5 6.6 6.8 L1 L2 L2-underline L3 L4'),
}


def _digests():
    workloads = importlib.import_module("perfbench.workloads")
    out = {}
    for workload in (workloads.GROUP_BATCH, workloads.NONLINEAR_DEEP,
                     workloads.HYPERBOLIC_DEFAULTS):
        for cell in workload.cells:
            code, report, _ = workloads.run_cell(cell)
            out[f"{workload.name}: {cell.label()}"] = (
                code, hashlib.sha256(report.encode()).hexdigest(),
                _verdicts(report))
    return out


def _verdicts(report):
    return " ".join(
        ("" if row["passed"] == "true" else "!") + row["identity"]
        + (f"@{row['k']}" if row["k"] else "")
        for row in csv.DictReader(io.StringIO(report)))


def test_reports_match_their_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    monkeypatch.chdir(ROOT)  # cell configs are relative to the repository
    got = _digests()
    assert sorted(got) == sorted(DIGESTS)
    # Exit code and verdicts first: a flip names its cell's new verdicts.
    flipped = {cell: got[cell][2] for cell in DIGESTS
               if got[cell][::2] != DIGESTS[cell][::2]}
    assert not flipped, flipped
    moved = sorted(cell for cell in DIGESTS if got[cell] != DIGESTS[cell])
    assert not moved, moved


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    for cell, (code, digest, verdicts) in sorted(_digests().items()):
        lines = textwrap.wrap(verdicts, 68, break_long_words=False,
                              break_on_hyphens=False)
        column = "\n        ".join([repr(line + " ") for line in lines[:-1]]
                                    + [repr(lines[-1])])
        print(f"    {cell!r}: (\n        {code}, {digest!r},\n        "
              f"{column}),")
