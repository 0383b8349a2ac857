"""The JSON that the packed sums and the lattice lookups feed is pinned:
`chartab` on the large tables, `enumerate` on the widest enumerations,
`verify --extremes-only` on the groups beyond the default corpus and
`analyze`, the one command that prints a verdict's witnesses, must
print exactly these bytes, as `tests/test_corpus_digest.py` pins the
corpus."""

import hashlib

import pytest

from superchar.cli import main

OUTPUT_SHA256 = {
    ("chartab", "D32"): "c8b964b0455ce457f3af849401d0732ee607dd6c829b06a9933b7219adabf453",
    ("chartab", "Q64"): "1fa519402493d3f06cb57ffe9f01a003aeb39d43e8f64d4d05f1219dd979d469",
    ("chartab", "C5xC5"): "925503f7ba4701261180ea7fc481f671896239187fa0dc4e7dcef38edd89c4ff",
    ("enumerate", "D12"): "b96e0c5c15e2de3857531604b3a6167cd4d75cef6a86bbc0f8342c5ad373ca4d",
    ("enumerate", "C10"): "4493c1082e100a16e37b3d87503efc41b169ef6ef784b91e0ece67a2547ac1a4",
    ("enumerate", "D4xC2"): "d0b6a5d35b57d2dc4021aa8db868084194870b2990c673df7a235960a8d21775",
    ("verify --extremes-only", "C2xC2xC2xC2"): "b1702e2755ec474e68dc8ad551100cc00f46cf47d138f63ba11e218c5c1d869c",
    ("verify --extremes-only", "S3xQ8"): "29b6427e3af1bf382340bdbd0577e6ad98b15c83d8bcb7d1a8d4bf1ecb01558c",
    ("verify --extremes-only", "D24"): "8916b1f125a908aeb9dd7bb7350024f2e6a25bb378e03531da0ef29bda0eee70",
    ("verify --extremes-only", "Q32"): "39907090b7c77f2e899513d628db729f9e685702814fb0fb5bcd2f87dd0419f6",
    ("verify --extremes-only", "C17"): "80d5d375d2704de02626951454a024c23051460e2297e520c81833642f710036",
    ("verify --extremes-only", "C4xC5"): "86fe43d6f966b788e40ce6f700c164a03f2f7dbdf59b395040bc95fc3e73dae2",
    ("analyze --sct finest", "S3"): "568bca401c69a0bf42c22ce90fd2950a3426c7297c2a3f1b9fe0d1ac84e7c2e7",
    ("analyze --sct finest", "A4"): "4822eec66b5058faa440e3acc3f0ae970178350f8c209c19e05038267318fa35",
    ("analyze --sct finest", "S4"): "1e992b40b153d22bed6ee12e3c32f318de106bd7d6df0d1d92873fdf4713764b",
    ("analyze --sct coarsest", "D4"): "cd0f19c520fd0ca3cc64c1dacec7ec4c4d4175c364fd945fb8e4b1d99d396587",
    ("analyze --sct coarsest", "Q8"): "3197bc6640313de1bb4aa5f5abb4c44f011ae5535f1526ba18fac4adcd39860c",
}


@pytest.mark.parametrize("command, group", sorted(OUTPUT_SHA256))
def test_json_output_digest(command, group, capsys):
    assert main([*command.split(), "--group", group, "--format", "json"]) == 0
    data = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[command, group]
