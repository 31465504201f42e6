"""Pinned bytes of every preset's artifacts at seed 7.

A refactor must leave these hashes alone.  An intended change of bytes
updates the pin here and names the changed artifact and its reason in
CHANGES.md.  The manifest records the tool version, the package's
__version__.  The pins were taken when a source tree recorded
"0+unknown", so the test fixes the version to that value, and a version
bump moves no pin.
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
    # A fixed share is one broadcast value, and a different source draws its
    # matches against p_match_diff.
    ("propagation", "fixed-share"): {
        **SMALL["propagation"],
        "missing_share": "0.25",
        "same_source": "false",
    },
    # Every chain field off its default, so a field dropped between the
    # preset's parameters and the chain record moves a hash.
    ("propagation", "every-field"): {
        **SMALL["propagation"],
        "k": "3",
        "pool_n": "7",
        "trait_prob": "0.3",
        "p_match_same": "0.6",
        "p_match_diff": "0.2",
        "peer_history": "posterior",
    },
    ("delta-impute", "exact"): {**SMALL["delta-impute"], "mask_mode": "exact"},
    # A CDF window of M = 43,636..56,364.  numpy's binomial draws by
    # inversion from 0 up only where s <= 1/2 and n * s < 30, and there it
    # takes the same counts from the same uniforms; here it would not.
    ("delta-impute", "windowed"): {
        **SMALL["delta-impute"],
        "rows": "1000",
        "cols": "100",
        "missing_share": "0.5",
        "p_diff": "0.4999",
    },
}

PINS = {
    ("mayfield", "small"): {
        "manifest.json": "561e9853c37dbaf1b038a08b3ac00202a93f1377fa79a65063e2f89a0b75a05d",
        "panel.csv": "7e3bc33a14d9138dac832ab8698f990cf3c0f34232016afdbb85243636f125aa",
        "report.json": "67e6dc4effc4cb7859cfa1f822d8bccb0b68db4373aa4ae252ac1f5e47193d02",
    },
    ("race", "small"): {
        "manifest.json": "7214e6491ba197675dd2599f7511649015aa6f105ea990e32de1c9a5293db010",
        "report.json": "80e0389627036bc5085cdbbe058f75529d1a92cd06aefd46127a1df9f466c5e9",
    },
    ("relevance", "small"): {
        "manifest.json": "7cb2bf77eac8e4724192e0a42a05b8bb7ac7b8aea1388b04b7adcdc090b562a1",
        "report.json": "8fdde53d0e57d825edc92902fe9c7771f0ef338e0cd1fa7c19e17196e891295e",
        "verdicts.csv": "3ac1425655fb215fd9dc480e7f3414b2490646a7abf32617b5560eb7817fe18a",
    },
    ("imputation-table", "small"): {
        "manifest.json": "cd6e6458c7993e698869aa8a5882b274e7d9414589d2852968bfa49f7c9fb7e3",
        "report.json": "b33d8c831f0e45eb6517f17d8a04e0c2178566ac972f40585a8b708b0b41bf65",
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
    ("delta-impute", "windowed"): {
        "estimate.json": "2b36dcf34c5d9a9bf1717ababc5f2fe32cffc87c7d973f4f7850530eceb7f856",
        "manifest.json": "9d046b47830b22478ccc1466c65b7a9f7c41e5bf105c1c4a4b7142607c8f2ee6",
    },
    ("feedback", "small"): {
        "aggregate.json": "f72bd454ecd727ef5a7090c5112b4f218e6006a01d99f34bb4d661e1dc2068f5",
        "gaps.csv": "63af399216334ec3ba167640063b037948f3f94ddffe6c54b8ba020c783872f7",
        "manifest.json": "575a1174a6af07ee165587692a85819db2f9944b49767ebe0db15b7763efda24",
        "trajectory.csv": "d7551664818ba7bba9226837f3bd4ce37a7ab73d26bb960cb3bcd42aa88b603e",
    },
    ("propagation", "small"): {
        "manifest.json": "d93a2dd2e555527ee3916c2ec88b955989dac5f26aa6196dc12359ef168e9a0c",
        "report.json": "75fdc1c7ad8e82ca41474801404f8410dffc1582a4f258a1283dae21182b3918",
        "results.csv": "235752c2c3000f93346ce09ab567e18e8d3b5b38d51388f199e06df26a24c6bd",
        "summary.csv": "d29dfd69ce5e039a8efd5e3f7ba19bd4e62d0f0cae4658e9608be7fb25b80e0c",
    },
    ("trier", "small"): {
        "case_report.json": "69598a4f90094e473af6d68ea4add2e479d6dcdbf4a2891e757d1002c33a7166",
        "manifest.json": "d87dcbf0c0b88bf643311ebb5398927a6524d992d5c5f4173eaf04402b59c9f9",
    },
    ("propagation", "default"): {
        "manifest.json": "0a2e802e0e8efdb4033404b8e64c3edc76709f071a1748c43f1e32515bc3ba78",
        "report.json": "f832197f6c0099611a1eae8e635b22d9ddb3ef8df04840de7e05e684ae2bd281",
        "results.csv": "52df95dc84a0c7b0f63b51099b062d86336786b9423e03c7c45df7ae2e1eb02a",
        "summary.csv": "fd08b3b67f5551c6fee698ade5649f8b7f4449044993033dd949d2bcaef4510f",
    },
    ("propagation", "fixed-share"): {
        "manifest.json": "2ac073d1e93da8f0a8f34ef882fbbc79c176916a721a85772c33b46a56f8d835",
        "report.json": "bf5cb12662c667ae418ffe03494f2af2b5e2115050e5cef5d44188202f6af146",
        "results.csv": "b2a28da63e791f3c43eac4e0929539a4ecc6de4ce7e6ec887dbf7b48e6fed7a9",
        "summary.csv": "cc27125df80ffcf3e8f82e85d04f437cdd79b4d7c37644b71513223c72ed6e17",
    },
    ("propagation", "every-field"): {
        "manifest.json": "5d168c7f23526f61912071384b7cc3678ec102c1adb30fb23af069623060d15c",
        "report.json": "f4ada49c31aad29b57ab1ce8f6c1e5b6c10e46f8d4733dbcf4f9f4dc89d08725",
        "results.csv": "58730af3cd5c4b88b49cab041549e29e2ca5c0495b3975813349457e0c77c34a",
        "summary.csv": "7ac4ab6a83bc78e106735c64dda6ac96fb6d4b44599a2ece5284a4f9a04bb5b4",
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
