"""Golden CSV hashes: every experiment kind, end to end through the CLI.

Each case is small enough to run in about a second. The hashes were taken
before the alloc and quantizer kernels were rewritten for speed, so any
change to an output byte, from any layer, fails here. Each case runs at one
and at two workers, because the output must not depend on the worker count.
A change that is meant to move results must re-pin the hash and say why.
"""

import hashlib

import pytest

from nomafb import cli

GOLDEN = {
    "minrate": (
        ["minrate", "--p-db", "0,20", "--delta", "0.05,0.2", "--trials", "20000"],
        "d7003f0e6647ae69b09bf49e052d1fb9dcd2739d188a01d58d92f356658404b8",
    ),
    "rateloss": (
        ["rateloss", "--p-db", "10", "--delta", "0.05,0.2", "--trials", "20000"],
        "b564bdf98c6222815bc1db1d67f2eb7865c62b91d7990cee74339e19cbab8374",
    ),
    "outage": (
        ["outage", "--p-db", "10,20", "--delta", "0.1", "--min-outage-events", "1000"],
        "23a90daaa0565ebe1e9512138844fce5268bfe5723f4350b3871da33bc3c4c67",
    ),
    "outageloss": (
        ["outageloss", "--p-db", "10", "--delta", "0.05,0.2", "--trials", "20000"],
        "0c55ed83d7421401b7b01630eae01576a388b0c9fb5df9ea53d4185caca21c65",
    ),
    "feedback_fixed": (
        ["feedback", "--delta", "0.05,0.2", "--trials", "20000"],
        "e63c8eecdbad84b4283190257373937dba7256e90f3726fae2f8d0f689112d31",
    ),
    "feedback_policy": (
        ["feedback", "--p-db", "10,20", "--delta-policy", "pcube", "--trials", "20000"],
        "483e5e95c36b718dd6a6709795c1852ddc44872b9de978244ace7d6ffc3b5dcd",
    ),
    "diversity": (
        ["diversity", "--p-db", "0:20:5", "--delta", "0.1", "--min-outage-events", "1000",
         "--trial-cap", "500000"],
        "9974648a850d2f224d84ca595a0e8aca4900e8409688727fb76b044ef22929ff",
    ),
    "kuser_k2": (
        ["kuser", "--k", "2", "--p-db", "10", "--delta", "0.05,0.2", "--trials", "20000"],
        "71c8e43cfabf9782722f5b61cf8df84a28e94b21c39c0d86909faf66e87dfd51",
    ),
    # Nine receivers: numpy sums rows of eight or more with partial accumulators.
    "kuser_k9": (
        ["kuser", "--k", "9", "--p-db", "10", "--delta", "0.1", "--trials", "20000"],
        "334b5c44532f8c43f71bc53f906e2e05f7d09e1188e849111719aa8c7b6a2ba2",
    ),
    # The kuser4 benchmark's shape: few distinct fed-back level words per block.
    "kuser_k4": (
        ["kuser", "--k", "4", "--p-db", "10", "--delta", "0.05,0.1,0.2", "--trials", "20000"],
        "0643f369f727df0ef697be9ab7d5d452941160664c601102936b1d3d1f0d74d5",
    ),
    # Sixteen receivers at delta 0.01: a level word does not fit one int64 key.
    "kuser_k16": (
        ["kuser", "--k", "16", "--p-db", "30", "--delta", "0.01", "--trials", "20000"],
        "c1bf2c9011c19aa3d04fb9b5b8549f6075b692beaa9112c8d9249aa91daace4b",
    ),
    # The kernel's comparator networks at K = 3 and 33, cut down from 4 and
    # 64 wires, and at K = 8, a whole one. Pinned before the networks.
    "kuser_k3": (
        ["kuser", "--k", "3", "--p-db", "10", "--delta", "0.05,0.2", "--trials", "20000"],
        "f16c0801fe9457781a183ecff4123e1c29e4ad94910f9fca5e396acc19131d16",
    ),
    "kuser_k8": (
        ["kuser", "--k", "8", "--p-db", "20", "--delta", "0.1", "--trials", "20000"],
        "b13b9884fc36356b3f26e9f1f0ad7655851319c4de6645deb606d9409a0b1120",
    ),
    "kuser_k33": (
        ["kuser", "--k", "33", "--p-db", "10", "--delta", "0.2", "--trials", "20000"],
        "00335c96cad280a670af8d6d72fa89ff80bef738a04e166b2515adbbe0367bed",
    ),
    # The largest lower-edge bin count whose min-rate table fits
    # PAIR_TABLE_MAX (t = 510 at delta 0.0092) and the first past it (t = 511
    # at 0.00919, split per row). Pinned on the per-row code, before tables.
    "minrate_table_edge": (
        ["minrate", "--p-db", "0,20", "--delta", "0.0092,0.00919", "--trials", "20000"],
        "aafe25afc0b81e49ef42ee61354e01ee9553ef9f2464be704cde0a75f5c77201",
    ),
    "rateloss_table_edge": (
        ["rateloss", "--p-db", "10", "--delta", "0.0092,0.00919", "--trials", "20000"],
        "f2bde970afbed52837cc2719d1d6c4606bda075b3722b9c12a05a19932e08891",
    ),
    # Where an upper-edge split table once ended: t_outage = 509 at delta
    # 0.00518 (levels up to 510) and 510 at 0.00517. Pinned on the per-row
    # code, before tables; every row splits per row again, so they pin bytes.
    "outage_table_edge": (
        ["outage", "--p-db", "10,20", "--delta", "0.00518,0.00517", "--min-outage-events",
         "1000"],
        "77e55758f144c5833201ebd0a578c54774991b2ec83dcb1dac7dd7e711f76bf5",
    ),
    "outageloss_table_edge": (
        ["outageloss", "--p-db", "10", "--delta", "0.00518,0.00517", "--trials", "20000"],
        "20f3e61a28829da7a3e1deae2e2850eea8b250505a5a0ea5fd1a515035bd026e",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_csv_hash_is_pinned(case, workers, tmp_path, capsys):
    argv, want = GOLDEN[case]
    path = tmp_path / "out.csv"
    rc = cli.main(argv + ["--seed", "3", "--workers", str(workers), "--out", str(path)])
    assert rc == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want
