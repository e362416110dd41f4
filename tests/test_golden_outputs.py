"""Golden output digests: every CSV and JSON file of the CLI's subcommands,
run at fixed seeds, must keep the exact bytes recorded in GOLDEN.  The
digests were taken before the CLI, the simulation summary and the critical
value table shared one output writer; a change that moves an output byte
fails here, or records new digests and says why.  The simulate-* digests
are those of stream layout 2 (replicate streams by Philox counter jumps).

Each run works in a fresh directory with relative paths, so manifests name
their inputs the same way everywhere; the one absolute path left, that of
the bundled rainfall file, is replaced by a placeholder before hashing.
Every run is checked at --threads 1 and 2.
"""

import hashlib
import json

import pytest

from recsel import cli, datasets

BUNDLED = datasets.RAINFALL_DATASET
TABLE = "# replications=100000\n# master_seed=0\nn,0.05\n8,2698.59\n"
EXPONENTIAL = {"kind": "proportional_hazard", "member": "exponential"}


def config(family, scheme, params=None, n_target=3, replications=300, **extra):
    return dict({"family": family, "theta_model": {"scheme": scheme, "params": params or {}},
                 "n_target": n_target, "replications": replications, "master_seed": 404}, **extra)


CONFIGS = {
    "simulate-ar": config({"kind": "gamma_type", "member": "gamma", "p": 0.5}, "ar_positive_error",
                          max_observations=10**6, n_values=[2, 3]),
    "simulate-geometric": config(EXPONENTIAL, "stochastic_geometric", n_target=4),
    "simulate-white-noise": config({"kind": "proportional_hazard", "member": "pareto",
                                    "params": {"beta": 2.0}}, "white_noise",
                                   max_observations=10**5),
    "simulate-constant-chain": config(EXPONENTIAL, "constant", {"value": 2.5}, n_target=4,
                                      replications=500),
    "simulate-gamma-constant": config({"kind": "gamma_type", "member": "normal_zero_mean"},
                                      "constant", {"value": 1.5}, max_observations=10**5),
    "simulate-user-supplied": config({"kind": "proportional_reversed_hazard", "member": "beta"},
                                     "user_supplied", {"thetas": [1.05**i for i in range(400)]}),
}

RUNS = {
    "records": ["records", "--input", BUNDLED],
    "estimate-nonstationary": ["estimate", "--input", BUNDLED, "--family", BUNDLED,
                               "--model", "nonstationary"],
    "estimate-stationary": ["estimate", "--input", BUNDLED, "--family", BUNDLED,
                            "--model", "stationary"],
    "critvals": ["critvals", "--reps", "2000", "--seed", "31"],
    "test-table": ["test", "--input", BUNDLED, "--family", BUNDLED, "--table", "table.csv"],
    "test-gamma-p1": ["test", "--input", BUNDLED, "--family",
                      '{"kind": "gamma_type", "member": "exponential"}', "--table", "table.csv"],
    "demo-rainfall": ["demo-rainfall", "--reps", "2000", "--seed", "32"],
    **{label: ["simulate", "--config", "config.json"] for label in CONFIGS},
}


def output_digests(label: str, threads: int) -> dict:
    """Run RUNS[label] in the current directory; SHA-256 of each output file."""
    with open("table.csv", "w", encoding="utf-8") as fh:
        fh.write(TABLE)
    if label in CONFIGS:
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(CONFIGS[label], fh)
    out = f"out-{label}-{threads}"
    assert cli.main(RUNS[label] + ["--threads", str(threads), "--out", out]) == 0
    bundled = datasets.rainfall_records_path().encode()
    digests = {}
    with open(f"{out}/manifest.json", "rb") as fh:
        outputs = ["manifest.json"] + json.load(fh)["outputs"]
    for name in outputs:
        with open(f"{out}/{name}", "rb") as fh:
            data = fh.read().replace(bundled, b"<" + BUNDLED.encode() + b">")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


GOLDEN = {
    "critvals": {
        "critvals.csv": "95cfc9d9427b8037d79b1be79c95dda00057c82c277429d2578d8e9c6d0a4217",
        "critvals.json": "c13723a9335e83966ecb6e4438aa39bfcf0ac5afc40e1fb2a7d0db8b112859dc",
        "manifest.json": "5ee2e4fa2523ba764f3cbec670625dbb9252a5c367b7abc0d254e4b98b4e0a90",
    },
    "demo-rainfall": {
        "manifest.json": "446e66c9b70cfa87e5af2060aa685d61ecfa2449dae4b39829b2ebe718447f29",
        "rainfall_estimates.csv": "df05952524d8d58a9ad863a9b9e85c58a774f263a4200e8686d6bcd503ada3c3",
        "rainfall_records.csv": "9143eaf924d4406edb5c91a837669730493222f457455d266a1c72082398f1ad",
        "rainfall_test.json": "864af074f1af2e6afa311d996ee406b72e5a157eae00732d1e3c45f80b41b044",
    },
    "estimate-nonstationary": {
        "estimates.csv": "97d80dd5a3361f3bf06596f38df95c7cad25195a3c95e5959c6b2269d714c7cc",
        "estimates.json": "8416c5487f72744d49cf6b4cf3962facba6acff9881f20eaf6c9543e67bc0253",
        "manifest.json": "265d3aa67b4ef95ae7f324774df1293cb28119f8968755ac8563da253fee070a",
    },
    "estimate-stationary": {
        "estimates.csv": "cbf46c07054aad4eac95218fd4cfd55641cd24d063e58ccb7940cbfbd4af2677",
        "estimates.json": "75ea363502eeeb8baa76b69943d5b07eec92792f90f04462a134fdb7826befc2",
        "manifest.json": "648bee430b00d230858344fcb5326237c870caf1aa635c8412c86fcbdca87b52",
    },
    "records": {
        "manifest.json": "14f69d534e45f3c9d0219732d09e554c707fd10a9560b1e654418920d92a3acc",
        "records.csv": "9143eaf924d4406edb5c91a837669730493222f457455d266a1c72082398f1ad",
    },
    "simulate-ar": {
        "manifest.json": "3cb70297daaa93c7d15e331e391d7ccaee8b10c0fa0648b21590bce10979342a",
        "simulate_summary.csv": "e85cc41d6986ddee5921fde21ca67155a707c1c0a2781b8897b7bea32db24bca",
        "simulate_summary.json": "0955dac05557d765525af87ca0a82e8f5ea7ecc82c9c3025cce808024c8f6ce5",
    },
    "simulate-constant-chain": {
        "manifest.json": "997c520e0989244f9a8bb786e97d2d1484c0604839629e118a2bb7ff7a21374f",
        "simulate_summary.csv": "658b2cb50b6b6f9cb954a1b39d2d0d5916970f6f1f114b7b28440cbacc3a806e",
        "simulate_summary.json": "43e01354a35f5494b8eb9456b2113e31752b104f5fbcf235323eb45096360e65",
    },
    "simulate-gamma-constant": {
        "manifest.json": "0cf8336fdb7bc697f67a600003923206478bca153cdccc2ef2a3d28bdde8c034",
        "simulate_summary.csv": "bee8a2cd419ce55c41b213c72f0e5da02aa8c8af0a01ee477fbaa46b3549c79a",
        "simulate_summary.json": "cffbe28b450b30ef109749efbece4ff94970d7a90bbcf50b94ca31e8ca0416a9",
    },
    "simulate-geometric": {
        "manifest.json": "204789cfb4faa8161fc0f982c10fd3cbc721311d9c0918a513c741f8ae8dfb66",
        "simulate_summary.csv": "c2ccc53e054824d376ade0a44dda541cad62830d6b83eb6205518a794ea4df21",
        "simulate_summary.json": "751898b3eebfbd31c5ffb90750de0a5af7cfa7fe42c753586c9f8958ba6a3bb5",
    },
    "simulate-user-supplied": {
        "manifest.json": "f9ce1da4115e54b9f1c199c8779a80d0e29095b27d264c5094ee71fad3b761e2",
        "simulate_summary.csv": "2501195be9508696d3531f0f2f7eb116527291ba1a04996b51bd0743f54783f9",
        "simulate_summary.json": "8e5e63c6cda5912b0b15a1600e86477b5e9ec6f3e60e8722b882a42550b2adad",
    },
    "simulate-white-noise": {
        "manifest.json": "9e752b2e2209cdc7359d7074287071e0e19f856974e7ed9d9c93a0a15ed005a9",
        "simulate_summary.csv": "1d743b11c01eff4e59d7579fb4d4e72c55dcdab883577630e5b9f56f5a599b3b",
        "simulate_summary.json": "4ca37f4be82b108ce37b36988c7e0327c1f4f24837452598da0a82fea0629c93",
    },
    "test-gamma-p1": {
        "manifest.json": "3ca59dc61431fc6654fb2d1fdfb2e5d56e5d639a4dd438f57825de170dd0e21d",
        "test_report.json": "d5b24225194ebc8e684b647eba8197a77a6f93da2d3edb9e2c0863fc871d84a3",
    },
    "test-table": {
        "manifest.json": "33f0f938377e8f6df34b9ef38decc8efd0fb08db4d43d5006452b37a000671b8",
        "test_report.json": "109371e5702817135c855f617001133fa9146f62981ed3768ede321e4c77132b",
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("label", sorted(RUNS))
def test_output_bytes(tmp_path, monkeypatch, label, threads):
    monkeypatch.chdir(tmp_path)
    assert output_digests(label, threads) == GOLDEN[label]
