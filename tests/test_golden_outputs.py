"""Golden outputs: the SHA-256 of every report each bundled scenario writes.

Acceptance criterion 10 compares two runs of the same code, so a change
that altered signatures (or anything else) deterministically would still
pass it. These digests pin the reports themselves: any change to curve
arithmetic, nonce derivation, encoding or gas shows up here as a failure.
"""

import contextlib
import hashlib
import io
import json

import pytest

from tendersim.cli import main
from tendersim.scenario import run_scenario

from conftest import SCENARIO_DIR

REPORTS = ("audit.json", "chain.json", "gas.csv", "summary.txt")

GOLDEN = {
    "early_key_reveal/audit.json": "a8c61e9ed91c0fc00795ecce1510e40d858a51bb79158c28e33c005590428ad2",
    "early_key_reveal/chain.json": "f92730578930b6accc3e0595d6f41f960f4f116386c142faf88ab30210fd00f1",
    "early_key_reveal/gas.csv": "4dc53c88e2b56642630f5fe30626d3d887bd9781481045e97189b43ea8263589",
    "early_key_reveal/summary.txt": "5ba861ed4baae425328eebae31169557c270b8e4f5d5ddc99b468cba32cae7f5",
    "erased_bid/audit.json": "a1a8bafa2b6716d0febc8fc9b8e21ca62d15d17e62d563b785fca1ecf47d62d8",
    "erased_bid/chain.json": "bd3d5d5c960c7b377e3d7527fa6cd760912d06d5d76d86c94c10e2b093164828",
    "erased_bid/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "erased_bid/summary.txt": "556d78f40c30c360cfea5769e5ca39bf251f67bb38c58c2504e5efa7303b111e",
    "forged_cert/audit.json": "1f6ca48d44d968cccdb11bb3c8e1ddbb2fbd3c4b2b9bd259e25584413a0c93ce",
    "forged_cert/chain.json": "a031d973fc68bf003e2e60d4c78acbb5f5dd95ba065b73c19de173544965791e",
    "forged_cert/gas.csv": "150b85dce81dec1e8ad404ec603b76cf80842be57032abd3d206cbb55657f84c",
    "forged_cert/summary.txt": "502108da42df59ec22170260de90b30d8874353705472ea733c616797ba1c984",
    "full_track_10_bids/audit.json": "d354c88d673e0c2cebf9f5a7be056c595089b1c25c464cde1590ad801232b54a",
    "full_track_10_bids/chain.json": "edcb6505487d73785020943db40df640adb7a52d41acafeaeeeabaf6d5d6dfbf",
    "full_track_10_bids/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "full_track_10_bids/summary.txt": "86e3eeff5627985a8465e79e5f0ef1343bba13da088c16b2dc88fcd31e772d13",
    "late_bid/audit.json": "61ac2fc2477b2c49c5d5755564d3c8800d66bb18aa16791d9746544cf5edef4d",
    "late_bid/chain.json": "f6d6571635c3b2a23e50ba7769adc5b5d2306f6e553b8bdb70e1ccc11f4c00c0",
    "late_bid/gas.csv": "c8d2c53e4419d7e782ee6569c9f2e9bbda18b34fc16eaa33aafda0400851ad19",
    "late_bid/summary.txt": "61c384c31bc56741a9d9377924e8c22fdafe2d45aeb6596148dda77ce131ecc0",
    "mutated_tender/audit.json": "22b9b9af2cb92c00eafc081e0983b5d1f87d3e6f59cc63f5cd6c256ba13ca9d0",
    "mutated_tender/chain.json": "bd875775f6cbf2a7d30e82250cdae67a921e765588d233a8c36ab0780bef1d38",
    "mutated_tender/gas.csv": "983b21580004875d31425d9c11138aaa1a47874f6b2e8035d0bbf60ccc671067",
    "mutated_tender/summary.txt": "ea4d145cad2bef55f6d0e4af6a4ee9ea73ab77d3c30ed7a3202cbbca8bd68836",
    "protected_10_bids/audit.json": "7f97c14df1fb9d7d7d72b99c41cdc3b8c7edce8402cfbe0fe0a22d02fb9d8162",
    "protected_10_bids/chain.json": "1d9cb823995af6c3cdf07ebc7b1d822583e571962d3b8f5b9cc0cea9b319f7e9",
    "protected_10_bids/gas.csv": "983b21580004875d31425d9c11138aaa1a47874f6b2e8035d0bbf60ccc671067",
    "protected_10_bids/summary.txt": "b166cc4b4ca2ddc5ea4ec4d886539e6da5b5a632c9c6c3a70b9805df852908b1",
    "rigged_winner/audit.json": "d36768fcf69db546389f2ebbdaeeac35ac7f1726a362b417dd3216e49a647f16",
    "rigged_winner/chain.json": "e02e5378c8cac70a611e29b7eac7f73a54474173df7f2c83aa2a64b56b17683c",
    "rigged_winner/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "rigged_winner/summary.txt": "a28a23ea49de33762e40219f0614f6f19ea86aacd51e947240310c8c2086f34c",
    "spam_full_track/audit.json": "8641ec1f4ecf952154c84593233fdceb8631aa7303c2e4c95b1d813e18a1c216",
    "spam_full_track/chain.json": "cf7242923eba80ab3567aa8c70d9763f7e01ebba366b8dbb0983265bc5648d61",
    "spam_full_track/gas.csv": "eca358f00ca6a9e77e6d622bf5b531481641cdfa9f0a682713920af03df527ac",
    "spam_full_track/summary.txt": "c2ad370736e23e1dd208ffd9c007e23b15e8b76851ee98e282b43c15928e6197",
    "spam_protected/audit.json": "a3831c2a856841aec296e7449e2111c577ad00e12307d32c49d0ed4e880773a3",
    "spam_protected/chain.json": "5218b4f7f8460067c7af0a08c3b6c90db29050b79c2cb7cd8c5e1c5162a71508",
    "spam_protected/gas.csv": "f9693badb7e08da537b98b741831512ab1bfa1d3ac451719d8820d3095eb2f17",
    "spam_protected/summary.txt": "e750a3a114fc39072659e7a17d721a3ec93ce399d3b4f939345c22083b6d0d59",
    "spam_stateless/audit.json": "857626cfe1d477eccc45cc3cd6ba89f5731ce8ffbea43fd433d5528fc27e144d",
    "spam_stateless/chain.json": "d46c460d77652f4755dc3a1907af1860b7820e11b4fa69b497a6d1ea8131270e",
    "spam_stateless/gas.csv": "780b1dc2587c537669fd553ca97525e54c38050cf4b96bc9b9dfb5a0a742c8cc",
    "spam_stateless/summary.txt": "e63c33672245e4fe28278f558b491268208e074e0c39ad7ec855b6e36dc5a1da",
    "stateless_10_bids/audit.json": "543e076bf6893be272e343ececf0790a11338dbcc5c008e87dc049c815acbcc1",
    "stateless_10_bids/chain.json": "f47d4a3ec7a94a56a2e8d099ce7fc91fde432892083964626db990b432e912fc",
    "stateless_10_bids/gas.csv": "7b0f8c524d97d5b0cdbb364aae6d1513a77236550d05bab1174fc2b48f30c117",
    "stateless_10_bids/summary.txt": "3b2ee749cc1f2ef44ded7f56c7303a5715942565ac272d0d19a8c2e5d6613f7d",
    "withheld_key/audit.json": "bd45f3c470144f0baed041fd09a7e80c63439075f794c105c6b30151b297b671",
    "withheld_key/chain.json": "cb8e521960c1cafd7247378473b46d3e8fbabd2b6fb722c60b25f7a20616e1cf",
    "withheld_key/gas.csv": "87ab716bd4eb1342d7ad3b816349df16f7d1770eccf7ec55e332288e39ba9a6a",
    "withheld_key/summary.txt": "e8237135423bd849b5e6f4e92f6ea4e36fa05a3075cb692f1bd8667aa8de0722",
}

# SHA-256 over the sorted "<scenario>/<file> <sha256hex>\n" lines of the
# chain.json and audit.json entries above
GOLDEN_CROSS_CHECK = "30544df476dc732b5b5cab5ebecc6363ac6962252edd59d2610317323bff997e"

# SHA-256 of what `tendersim audit <chain.json> --out <file>` writes for each
# bundled scenario's chain.json
AUDIT_OUT_GOLDEN = {
    "early_key_reveal": "6d79c8e881da3a093d553ad02c01f8ca9507c948e3d8f3d78a158847e00824f4",
    "erased_bid": "fbf0d9cf3dad4e354c2f3fe0ca6e0a437c8b4dd42e2a4c1c50b4a00b13a30cc4",
    "forged_cert": "eb77e1df7265ab02a2b2da37651b0c0747a9269b9b7ee49fd539e6f0032b2542",
    "full_track_10_bids": "fdc0c5f2b5d3fcebf0d7ee6c52fb6421cea06c5ce739e61f0ae6bc91a21b447a",
    "late_bid": "d937185d439a7dcbbf090e15facd3360612d0b1cafa977c6553f9866ee1a2a73",
    "mutated_tender": "8d6b3d71694aac6a5ec413b5de3c492f5ac93b49266b979dfca885c14090682b",
    "protected_10_bids": "09b33f8a464bd9e191f3573456283a8b19c2f859718da2be71592b98076cb2df",
    "rigged_winner": "48cc24f357f11b1bd372a2ab2bbb4eb095faa9264c51fc75f7101cebf68d16de",
    "spam_full_track": "d1cda96e307e0f9ca07cf4249dbf80cf9b1346ae488fad6be37b0990916c8431",
    "spam_protected": "6127dbcd3ba357a7ecc53ed9401405b9515622c3bb21f1397ce060ee3e8cfaad",
    "spam_stateless": "60946f4016bb95ba0f3a19acf7848a8aa273cbaf161167f52a3cac17c20bc822",
    "stateless_10_bids": "c95908d55075fd001e7a40e2b82b7a8d1a5606eb6dae89f0268424ac8aaa443f",
    "withheld_key": "72a8c24320ee0ac4269e00a83a841580f050d0847d709221f1cc06473bc71562",
}
# The head block hash of each bundled scenario's chain. It commits to every
# block and transaction hash before it, so it pins the ledger itself, apart
# from how an export spells it.
HEAD_BLOCK_HASH = {
    "early_key_reveal": "0x52ce92dd83816715629d09d7c52a0686991fc3074fc99d001dd7541d4d745f1e",
    "erased_bid": "0xa1c0a3bfec6d9957992421c8ba01e905ada1d386896aac14e808edaaeb120863",
    "forged_cert": "0x85f8989b9b8e4f0f5f57a65e1e0f242cebd9279d0bb6e89a17fd94eb7e3649c4",
    "full_track_10_bids": "0xf92ab4e02637bead0e71cb55dbc35766689c1d588f30045a5d24584c065c5e1d",
    "late_bid": "0xfe1405226019ff5c96a8b575f0fe98295e73e15f00e1ade7721789e22df3d0db",
    "mutated_tender": "0x76c3cfc6f2b83cb192b94ab745426ab5a9087de130e5c0b7d800f98776a8378d",
    "protected_10_bids": "0xca307252336e5a84fc98fbdfef8e5ce84caa99d873e1f9976ec7ef45e0784159",
    "rigged_winner": "0xb4c6291004afb84ce7b00aa3a0f04423fd6d373ec5da5beedffe9e2d43fd03a1",
    "spam_full_track": "0x6bdbc507b19b07762bf3879a42ee4376e9aa9a7e4d4d79fa6bd32b51bb9f2fc8",
    "spam_protected": "0xaa58c8603e2bff55959e3adff494432212d6b565b0eba46d13be082bc1d4e761",
    "spam_stateless": "0x535bfd28acc3a78dabb8bbaf66984377ed52ad494e45ea429e61e12559990f18",
    "stateless_10_bids": "0x077a169527606f68a0df65f4e11d13d49dc0181a1a2f2cd48b8bf0d5f430b76c",
    "withheld_key": "0xe5a88c408ed5df23f408a501af53a7911bb685767ce204c1b6b81fb007d2aa3d",
}

# the scenarios whose chain the citizen's audit fails
AUDIT_FAILS = {"erased_bid", "forged_cert", "mutated_tender", "rigged_winner",
               "spam_full_track"}

SCENARIOS = sorted({key.split("/")[0] for key in GOLDEN})


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """The directory of one run_scenario of a bundled scenario, run once per module."""
    dirs = {}

    def get(scenario):
        if scenario not in dirs:
            dirs[scenario] = tmp_path_factory.mktemp(scenario)
            run_scenario(SCENARIO_DIR / f"{scenario}.json", dirs[scenario])
        return dirs[scenario]
    return get


def test_every_bundled_scenario_is_pinned():
    assert SCENARIOS == sorted(p.stem for p in SCENARIO_DIR.glob("*.json"))
    assert sorted(GOLDEN) == [f"{s}/{r}" for s in SCENARIOS for r in REPORTS]
    assert sorted(AUDIT_OUT_GOLDEN) == SCENARIOS
    assert sorted(HEAD_BLOCK_HASH) == SCENARIOS


def test_pinned_digests_match_cross_check():
    lines = sorted(f"{key} {digest}\n" for key, digest in GOLDEN.items()
                   if key.endswith(("/chain.json", "/audit.json")))
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == GOLDEN_CROSS_CHECK


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_reports_match_golden_digests(scenario, run_dir):
    out = run_dir(scenario)
    written = sorted(p.name for p in out.iterdir())
    assert written == list(REPORTS)
    for report in REPORTS:
        digest = hashlib.sha256((out / report).read_bytes()).hexdigest()
        assert digest == GOLDEN[f"{scenario}/{report}"], f"{scenario}/{report}"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_head_block_hash_matches_golden(scenario, run_dir):
    export = json.loads((run_dir(scenario) / "chain.json").read_bytes())
    assert export["blocks"][-1]["block_hash"] == HEAD_BLOCK_HASH[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_citizen_audit_report_matches_golden_digest(scenario, run_dir, tmp_path):
    report = tmp_path / "citizen.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["audit", str(run_dir(scenario) / "chain.json"), "--out", str(report)])
    assert code == (1 if scenario in AUDIT_FAILS else 0)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == AUDIT_OUT_GOLDEN[scenario]
