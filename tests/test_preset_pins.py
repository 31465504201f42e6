"""Pinned bytes of every preset's artifacts at seed 7.

A refactor must leave these hashes alone.  An intended change of bytes
updates the pin here and names the changed artifact and its reason in
CHANGES.md.  The manifest records the tool version, which depends on
whether the package is installed, so the version is fixed to the
source-tree value for the pin.
"""

import hashlib

import pytest

import forensic_bias.presets as presets

# Acceptance 11's small overrides: every preset, a few seconds in all.
SMALL = {
    "mayfield": {},
    "race": {},
    "relevance": {},
    "imputation-table": {},
    "imputation-grid": {},
    "delta-impute": {"n_reps": "400"},
    "feedback": {"n_seeds": "40", "n_obs": "50"},
    "propagation": {"n_runs": "40"},
    "trier": {},
}

# Further pinned configurations, keyed like PINS.
VARIANTS = {
    ("propagation", "default"): {},
    ("delta-impute", "exact"): {**SMALL["delta-impute"], "mask_mode": "exact"},
}

PINS = {
    ("mayfield", "small"): {
        "manifest.json": "561e9853c37dbaf1b038a08b3ac00202a93f1377fa79a65063e2f89a0b75a05d",
        "panel.csv": "7e3bc33a14d9138dac832ab8698f990cf3c0f34232016afdbb85243636f125aa",
        "report.json": "67e6dc4effc4cb7859cfa1f822d8bccb0b68db4373aa4ae252ac1f5e47193d02",
    },
    ("race", "small"): {
        "manifest.json": "c7ede6a11fe0195a1df8ba21a0d580c5603cbd312ae20de02e625f4462648d5c",
        "report.json": "205f79459f90c155ac5cf35011dc0b2843e936147ba62ed147529b8a5c74d614",
    },
    ("relevance", "small"): {
        "manifest.json": "7cb2bf77eac8e4724192e0a42a05b8bb7ac7b8aea1388b04b7adcdc090b562a1",
        "report.json": "8fdde53d0e57d825edc92902fe9c7771f0ef338e0cd1fa7c19e17196e891295e",
        "verdicts.csv": "3ac1425655fb215fd9dc480e7f3414b2490646a7abf32617b5560eb7817fe18a",
    },
    ("imputation-table", "small"): {
        "manifest.json": "485412861d7a81b0c43dcd94871f313c764f93e300267c0ac04eec14a016c5d7",
        "report.json": "4d77bf2000fa36f6113ae7c8e1965c53cf9ca97ebb2e1bf36d9eb30128507363",
        "tables.csv": "c4e9fa8816c2c363c46fcf67358f2f464890a5fbaeccb1769e5735a75e044c3e",
    },
    ("imputation-grid", "small"): {
        "exemplar_x.txt": "606bd3d8a422d28ed46c2127289b6ae9da6b5206d5ab8d3b78a0d41f24273ac4",
        "imputed_y.txt": "db991bf3752ee8c8feae844e71720ccaa2b117c2425ea4de749f9eba13d6c7f3",
        "manifest.json": "5a1cf9bb3b735475abf97a8d4ac73ff35199cdf90307aaaa3e659e9799cbec6a",
        "observed_y.txt": "204afb25e9997fa7371749df36e4f708912d8a1ad91dbd4c39af74667a31dd09",
        "report.json": "a0ee2f846a9bf91a22588dd3ad67d8572e75fe5ce47292c74f4b8c247c5870ea",
        "true_y.txt": "931971965f0f542cf6d76e50e8a3901633d9dae7195c3732137a88aa9016852e",
    },
    ("delta-impute", "small"): {
        "estimate.json": "ed59c1377e1366831433c07245ff067c9c79d2d507cf5c154086394b01f1c82f",
        "manifest.json": "197da8cee47c39aa12958b7218ff3d6616431d8d030f046151c907fdcf7cf3cd",
    },
    ("delta-impute", "exact"): {
        "estimate.json": "1056485d23bd9e8ef90c731ffb8269b80de8c6ecdae9def4f2eded4c84e594b0",
        "manifest.json": "637f4776621698304390fba6472b21be21bd0a3a755f29797547589748db0572",
    },
    ("feedback", "small"): {
        "aggregate.json": "6ce91f9739547e8568d587546d35bc589e1f769f0bbdf5a10c7952b73f68a866",
        "gaps.csv": "ea9c13d2bb196152d581c31e798a667bbed7b611fba9f42d56177e3e1d2669ea",
        "manifest.json": "d476f9296fdc20abeeb6e881f33ae699b3ce8e77a8eb0767add4699830ffe5ad",
        "trajectory.csv": "d7551664818ba7bba9226837f3bd4ce37a7ab73d26bb960cb3bcd42aa88b603e",
    },
    ("propagation", "small"): {
        "manifest.json": "939034034629028466225747352af8dd365ceec0e3057c1f75d48f197309c577",
        "report.json": "75fdc1c7ad8e82ca41474801404f8410dffc1582a4f258a1283dae21182b3918",
        "results.csv": "ee01d0ee43f4266e5c275080127867db129f5a30d10c97d57d091ab80c478d96",
        "summary.csv": "2e96a8cf24f7dd815f003f35513cb209dd2bf52d2563e68f896631c3f9bbce7b",
    },
    ("trier", "small"): {
        "case_report.json": "69598a4f90094e473af6d68ea4add2e479d6dcdbf4a2891e757d1002c33a7166",
        "manifest.json": "d87dcbf0c0b88bf643311ebb5398927a6524d992d5c5f4173eaf04402b59c9f9",
    },
    ("propagation", "default"): {
        "manifest.json": "a873acbe0db8ec39ea7b519fa51a9d4ecb06bed5712a7847740293cc4f1282a4",
        "report.json": "b6674184fd1ee8ff774bf09c33b3acdf81b49c052c4ab7e57c87602f8661e80c",
        "results.csv": "6a9ce898d68a88ce032a5c9b025c6a77543f5dc2a6a97ee39278906d2b17c554",
        "summary.csv": "92646e44ab9b3890bf9eb029eac31e08b296be09aea038407c880d4e1d0c6627",
    },
}


def test_every_preset_is_pinned():
    assert {name for name, size in PINS if size == "small"} == set(presets.PRESETS)


@pytest.mark.parametrize("name,size", sorted(PINS), ids=lambda v: v)
def test_artifact_bytes_pinned(name, size, tmp_path, monkeypatch):
    monkeypatch.setattr(presets, "TOOL_VERSION", "0+unknown")
    overrides = SMALL[name] if size == "small" else VARIANTS[(name, size)]
    presets.run_preset(name, 7, overrides, out_dir=tmp_path)
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert got == PINS[(name, size)]
