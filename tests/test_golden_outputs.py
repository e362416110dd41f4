"""Golden output digests: every CSV and JSON file of the CLI's subcommands,
run at fixed seeds, must keep the exact bytes recorded in GOLDEN.  The
digests were taken before the CLI, the simulation summary and the critical
value table shared one output writer; a change that moves an output byte
fails here, or records new digests and says why.

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
        "manifest.json": "432909b23517e097780217c6ca1310b7997ed7f6b4a58bb94d259fdaf40e1969",
        "simulate_summary.csv": "8c639b750679b320ca934048541d87ee1c1e8f2fe89c8802a71d7bad93edbe53",
        "simulate_summary.json": "47bbe0e6683fc89a90ca4fdfdf17901e605e891c473fe05d7a8ba89a73dce4c5",
    },
    "simulate-constant-chain": {
        "manifest.json": "75c33e744ba55b6753f6e30aab0d6d124e1a8f0d17628c695ada04f76af44a5d",
        "simulate_summary.csv": "42ac2ea9a765de7fd16da04a669c9c6072b25756ffebf97806d700c442ef0618",
        "simulate_summary.json": "c11cc6fa282df3a425e7acfc5e3214bed6a59c6befec1172297bb9f4d228edd8",
    },
    "simulate-gamma-constant": {
        "manifest.json": "9ae1fd3a348692d18b1daaca9894085195f7c4600285bc43f48c1ea4eec70172",
        "simulate_summary.csv": "5ad12583e5b88110be4d1d570887465863b61ea4da5bf337b5a1b9705c2f8771",
        "simulate_summary.json": "4c16fb1826af2e92fd4676345c14fd98d9a663157fbbaad864b0f83c914e122f",
    },
    "simulate-geometric": {
        "manifest.json": "04536df147acb6fef6504544fbad7ab97c8386688b4530212bdf7a4aabc9f03a",
        "simulate_summary.csv": "e3e16d820ca866f880e6df26361ccea0fc724c681a8b4ac778a5607938f074d6",
        "simulate_summary.json": "6850ed5e335208ba435c75a84ad84731618be1dd01dc36ab0fc114148a76f254",
    },
    "simulate-user-supplied": {
        "manifest.json": "74f422a4a3becc287662141ac5ed745ddde69f9b6f385bb38ebb5037e8068821",
        "simulate_summary.csv": "886aba8b6b08bbd1a6bb1eb5038ba7a88210ca3d59b041db1b1dd06de39d3df9",
        "simulate_summary.json": "4435b22eb2d549f5de9291739b8198e3fee66edf9d22bb12f9d0520cc0c3b450",
    },
    "simulate-white-noise": {
        "manifest.json": "daa187e2a5ebce5ee6a0c8ec7dc16b72f963888af732deb5eb2a6530564ece4f",
        "simulate_summary.csv": "d08f0750131289240fe7671ad69ca44db2d257625989af79c42a6ec1bf5277ff",
        "simulate_summary.json": "18481f1cf27b86e47bb765225a531a17ba51b4c6a415dc16b27a51f87b2ebebd",
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
