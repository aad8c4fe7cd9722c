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
    "early_key_reveal/chain.json": "094d0d167a681b3826ecc80757fb6067a2fdc4a5ac508fa0c4cc9a68636dbf94",
    "early_key_reveal/gas.csv": "4dc53c88e2b56642630f5fe30626d3d887bd9781481045e97189b43ea8263589",
    "early_key_reveal/summary.txt": "5ba861ed4baae425328eebae31169557c270b8e4f5d5ddc99b468cba32cae7f5",
    "erased_bid/audit.json": "a1a8bafa2b6716d0febc8fc9b8e21ca62d15d17e62d563b785fca1ecf47d62d8",
    "erased_bid/chain.json": "1a50894885c35c16421e98a0a682ee11a6d2595dc1f084feefe163d5b66763d9",
    "erased_bid/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "erased_bid/summary.txt": "556d78f40c30c360cfea5769e5ca39bf251f67bb38c58c2504e5efa7303b111e",
    "forged_cert/audit.json": "1f6ca48d44d968cccdb11bb3c8e1ddbb2fbd3c4b2b9bd259e25584413a0c93ce",
    "forged_cert/chain.json": "6feaef26cddfb077373cd003e9667568378cb792ad70f1182b57b8b39180c84d",
    "forged_cert/gas.csv": "150b85dce81dec1e8ad404ec603b76cf80842be57032abd3d206cbb55657f84c",
    "forged_cert/summary.txt": "502108da42df59ec22170260de90b30d8874353705472ea733c616797ba1c984",
    "full_track_10_bids/audit.json": "d354c88d673e0c2cebf9f5a7be056c595089b1c25c464cde1590ad801232b54a",
    "full_track_10_bids/chain.json": "d7a5339e18628d93108374338f5ab0e9cda973e3d1e3d6bc9618e9855c4bedc5",
    "full_track_10_bids/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "full_track_10_bids/summary.txt": "86e3eeff5627985a8465e79e5f0ef1343bba13da088c16b2dc88fcd31e772d13",
    "late_bid/audit.json": "61ac2fc2477b2c49c5d5755564d3c8800d66bb18aa16791d9746544cf5edef4d",
    "late_bid/chain.json": "7ab0abe4725b7d37a75d1e238ee4afa5da2a030070abd4e79b4956895a86cd30",
    "late_bid/gas.csv": "c8d2c53e4419d7e782ee6569c9f2e9bbda18b34fc16eaa33aafda0400851ad19",
    "late_bid/summary.txt": "61c384c31bc56741a9d9377924e8c22fdafe2d45aeb6596148dda77ce131ecc0",
    "mutated_tender/audit.json": "22b9b9af2cb92c00eafc081e0983b5d1f87d3e6f59cc63f5cd6c256ba13ca9d0",
    "mutated_tender/chain.json": "6a450d361900eb45c814d0a167bc2dc78ba998f4d9d19e993d902c935e560c53",
    "mutated_tender/gas.csv": "983b21580004875d31425d9c11138aaa1a47874f6b2e8035d0bbf60ccc671067",
    "mutated_tender/summary.txt": "ea4d145cad2bef55f6d0e4af6a4ee9ea73ab77d3c30ed7a3202cbbca8bd68836",
    "protected_10_bids/audit.json": "7f97c14df1fb9d7d7d72b99c41cdc3b8c7edce8402cfbe0fe0a22d02fb9d8162",
    "protected_10_bids/chain.json": "76cafbbdf0cdc2a793502a605d7ec5591ea7de8fd7e5a216fa1556e0b6bdddeb",
    "protected_10_bids/gas.csv": "983b21580004875d31425d9c11138aaa1a47874f6b2e8035d0bbf60ccc671067",
    "protected_10_bids/summary.txt": "b166cc4b4ca2ddc5ea4ec4d886539e6da5b5a632c9c6c3a70b9805df852908b1",
    "rigged_winner/audit.json": "d36768fcf69db546389f2ebbdaeeac35ac7f1726a362b417dd3216e49a647f16",
    "rigged_winner/chain.json": "696f48a52653d61e6cae19d4ed7c2cc95da32e044e5118ab3fb253690d39622f",
    "rigged_winner/gas.csv": "ee99b3b80aa06360054f972556e809fa7718bd0740d9e44b162b0ae80c52582b",
    "rigged_winner/summary.txt": "a28a23ea49de33762e40219f0614f6f19ea86aacd51e947240310c8c2086f34c",
    "spam_full_track/audit.json": "8641ec1f4ecf952154c84593233fdceb8631aa7303c2e4c95b1d813e18a1c216",
    "spam_full_track/chain.json": "74c812d9423a0b4a4ebb0bf379588306148d52302883122a0e6a9c0fb218fecc",
    "spam_full_track/gas.csv": "eca358f00ca6a9e77e6d622bf5b531481641cdfa9f0a682713920af03df527ac",
    "spam_full_track/summary.txt": "c2ad370736e23e1dd208ffd9c007e23b15e8b76851ee98e282b43c15928e6197",
    "spam_protected/audit.json": "a3831c2a856841aec296e7449e2111c577ad00e12307d32c49d0ed4e880773a3",
    "spam_protected/chain.json": "cf05a2f1b840bfbb67d0e9c81e3515b5617f37ec73badb0a05f9ae2f1a91a4d3",
    "spam_protected/gas.csv": "f9693badb7e08da537b98b741831512ab1bfa1d3ac451719d8820d3095eb2f17",
    "spam_protected/summary.txt": "e750a3a114fc39072659e7a17d721a3ec93ce399d3b4f939345c22083b6d0d59",
    "spam_stateless/audit.json": "857626cfe1d477eccc45cc3cd6ba89f5731ce8ffbea43fd433d5528fc27e144d",
    "spam_stateless/chain.json": "f2abf1b8f0a0fe634e9e039876e9926b374c225315a80901f82e8d5daa1fb266",
    "spam_stateless/gas.csv": "780b1dc2587c537669fd553ca97525e54c38050cf4b96bc9b9dfb5a0a742c8cc",
    "spam_stateless/summary.txt": "e63c33672245e4fe28278f558b491268208e074e0c39ad7ec855b6e36dc5a1da",
    "stateless_10_bids/audit.json": "543e076bf6893be272e343ececf0790a11338dbcc5c008e87dc049c815acbcc1",
    "stateless_10_bids/chain.json": "4b5e3fa93d38fd48375cbea551998fabf9410b8e6bdd4fe5763bf8935b11f28f",
    "stateless_10_bids/gas.csv": "7b0f8c524d97d5b0cdbb364aae6d1513a77236550d05bab1174fc2b48f30c117",
    "stateless_10_bids/summary.txt": "3b2ee749cc1f2ef44ded7f56c7303a5715942565ac272d0d19a8c2e5d6613f7d",
    "withheld_key/audit.json": "bd45f3c470144f0baed041fd09a7e80c63439075f794c105c6b30151b297b671",
    "withheld_key/chain.json": "5f1f0bc7a17e2a1ff17a1c701974d5b849815f04395dea00d4f54d2272dbedfd",
    "withheld_key/gas.csv": "87ab716bd4eb1342d7ad3b816349df16f7d1770eccf7ec55e332288e39ba9a6a",
    "withheld_key/summary.txt": "e8237135423bd849b5e6f4e92f6ea4e36fa05a3075cb692f1bd8667aa8de0722",
}

# SHA-256 over the sorted "<scenario>/<file> <sha256hex>\n" lines of the
# chain.json and audit.json entries above
GOLDEN_CROSS_CHECK = "401b341ac4b5cef9a1da78045194d8b1bb7cf7573e5d6312bf98b6f9fe6d5776"

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
    "early_key_reveal": "0x45bda3783838eab68333a71edd3980ac389f4b1fcf1538499f73e01384b92727",
    "erased_bid": "0x2675f435a9614863215ad358fed03184cd078b72daf2898eac1442541f842616",
    "forged_cert": "0x9211547f7ed3944705832f581a8c4e59d5b61461ca7941fdbd59f70dab17d8ee",
    "full_track_10_bids": "0x66d662c2fbd04ce79bde4ff27ff93f29dd7d7ba641989b7f24a61117e8b49f2c",
    "late_bid": "0x15c03d386a2280a30a7b2f281d06c7cc4989a3bb02940e5e230517caa939c8e2",
    "mutated_tender": "0xf7ae82b46e7b189d4958e628d4b85ba7161437b98b17623a5e382df76072ae65",
    "protected_10_bids": "0xde46f8c071c4a572ca064c845224fbbd243770fad8ef2d86430be21f21eeb0bf",
    "rigged_winner": "0x15711b5bb2b4bad3cd8169e1a6366a8c50659e17e460a94acce4753d292d18d7",
    "spam_full_track": "0x6e9cea81ad3bc3573aee8ef8ffc5af1deb085e4c6a5fd7b168d46fb52bc95100",
    "spam_protected": "0x5db54b2524ef120cd9aa21e94c4f355c4e8ea2ded998489b8b5f4b3aec01bd8a",
    "spam_stateless": "0xb0592662f89162d111b9ab05e6563fd1538a33bcfdac9a23586e655a7895fcd9",
    "stateless_10_bids": "0x2d6964d4f2ab3cf369ce5d393125a7c12d76595cb37c3335b360cd22328d8cdc",
    "withheld_key": "0xfc6b174021b4ea2d929f4242b246fc73c9ba40436dfa620dbd6dbcb80fb34d4d",
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
