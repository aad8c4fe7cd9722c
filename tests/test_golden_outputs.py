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

import chain_surgery
from conftest import SCENARIO_DIR, assert_strict_canonical_json

REPORTS = ("audit.json", "chain.json", "gas.csv", "summary.txt")

GOLDEN = {
    "early_key_reveal/audit.json": "469f056e29e57c0af10fcc5dd3d97f86b67e41ccac0bc15fbcdb6544fad5faa1",
    "early_key_reveal/chain.json": "7bbbc81d2970c772bc9fab815e955aab59b4d6b6dfcadba66159c71a26ff331c",
    "early_key_reveal/gas.csv": "5c7484dedd7a21c1fd7037662b2239cafc2d57df4adec41b8b9297a544cc98dc",
    "early_key_reveal/summary.txt": "5ba861ed4baae425328eebae31169557c270b8e4f5d5ddc99b468cba32cae7f5",
    "erased_bid/audit.json": "7b4bcaecdee400f3f3a788649ce23ab3fb96600493f6439568c65808f5f65273",
    "erased_bid/chain.json": "c3e4e1b6c7ff49a2d48344a8e066e1b380c605611803c44d778c147d3ab68fe2",
    "erased_bid/gas.csv": "06260140411ce5e75d51839edc56359ee646d990c229d4f45ef0709f41fc8c44",
    "erased_bid/summary.txt": "556d78f40c30c360cfea5769e5ca39bf251f67bb38c58c2504e5efa7303b111e",
    "forged_cert/audit.json": "376e3cc86440eadb59f6b61c2fc49d6f5ec7f1a8bc154ab0659b12bfeb084667",
    "forged_cert/chain.json": "dd3ce71139389b00f95088c5cf49e78b17f2135769ff19f3e65d72b040e94b81",
    "forged_cert/gas.csv": "8b14473319a1ec3b2ff4161b73a165b74de517eb99acd1643bafaca819687c31",
    "forged_cert/summary.txt": "502108da42df59ec22170260de90b30d8874353705472ea733c616797ba1c984",
    "full_track_10_bids/audit.json": "548e94334352be75ab593a6cdba8330ac1c5910320a0f26f09b349031787fca1",
    "full_track_10_bids/chain.json": "f54a4506c6ee72022e338685a919db3bd8657b0be7dd8799677754a241d40b01",
    "full_track_10_bids/gas.csv": "06260140411ce5e75d51839edc56359ee646d990c229d4f45ef0709f41fc8c44",
    "full_track_10_bids/summary.txt": "86e3eeff5627985a8465e79e5f0ef1343bba13da088c16b2dc88fcd31e772d13",
    "late_bid/audit.json": "be642479223650e7b646712916f24742fefe6f1ee3e787a9ed8935064752be21",
    "late_bid/chain.json": "38f8b7600664a9e475db67ca2c50c17799c8a0b9947c216c291a9869997442d3",
    "late_bid/gas.csv": "4a815e89ae7216933a30f093e201ebae8cdf057a3c63c4c61496cbbf9e53b7e2",
    "late_bid/summary.txt": "61c384c31bc56741a9d9377924e8c22fdafe2d45aeb6596148dda77ce131ecc0",
    "mutated_tender/audit.json": "6c023cc87e4f1e54b7a1c5fd1a2027a73caf2365e74d5a36ff822edb122d20b3",
    "mutated_tender/chain.json": "4ab0540c814596484b4801182201c81f1af4705d03ebd81136a2ad983d8da52b",
    "mutated_tender/gas.csv": "58765549ed63121344251b564c1022309faab7addc82fe97f729d3fd9b6e61ed",
    "mutated_tender/summary.txt": "ea4d145cad2bef55f6d0e4af6a4ee9ea73ab77d3c30ed7a3202cbbca8bd68836",
    "protected_10_bids/audit.json": "864e67c470fe766e7b0864201f090b562eabb61c6cc6103e5be5daf05ba3eb2c",
    "protected_10_bids/chain.json": "8820c345061ffac2051d51337d42b1ce886bd025d3737bbea36f6eaa582addbd",
    "protected_10_bids/gas.csv": "58765549ed63121344251b564c1022309faab7addc82fe97f729d3fd9b6e61ed",
    "protected_10_bids/summary.txt": "b166cc4b4ca2ddc5ea4ec4d886539e6da5b5a632c9c6c3a70b9805df852908b1",
    "rigged_winner/audit.json": "2642b9d5c1dca94c5d5c4127acfeb6a398a31aa82d540749d9d37f9f5d344d4c",
    "rigged_winner/chain.json": "f1516ba6ff548c300c44db2b37d00b0a8b7263e902d2de90b51275f52b9961f7",
    "rigged_winner/gas.csv": "06260140411ce5e75d51839edc56359ee646d990c229d4f45ef0709f41fc8c44",
    "rigged_winner/summary.txt": "a28a23ea49de33762e40219f0614f6f19ea86aacd51e947240310c8c2086f34c",
    "spam_full_track/audit.json": "0368900cc533938e055927e4c1719353f2f52393f670849e7ca912b582b4185e",
    "spam_full_track/chain.json": "c5d8ba1d8107ac285f1617888ad35b26f7fccb40fc74c6e4c08f6fb490c5cdbb",
    "spam_full_track/gas.csv": "13a3f4c13dac9747f1e5538197c143d7662d49178a51d77a4cd3e7db23726fbc",
    "spam_full_track/summary.txt": "c2ad370736e23e1dd208ffd9c007e23b15e8b76851ee98e282b43c15928e6197",
    "spam_protected/audit.json": "bc01ec5f524eb49870ea125377e59ae6b5f3b66bd7e50558b3c67e59c67feb5f",
    "spam_protected/chain.json": "f75c5af1c481ea02696bd066fd9cc2f5749b13f5adc615d600f8c730b44f7c30",
    "spam_protected/gas.csv": "ea12473fb45d96393a957fe0325e447a395ad51c7f339750eec7a74b49ee5a70",
    "spam_protected/summary.txt": "e750a3a114fc39072659e7a17d721a3ec93ce399d3b4f939345c22083b6d0d59",
    "spam_stateless/audit.json": "3802120edf80b586feba288e3bcc03be396d01f463ca1783a484ab9ffb6bf8f2",
    "spam_stateless/chain.json": "d1c42aacf86365dd8304606beb0818ce30bc51456a0ed8b3e6f885a38cbd6e2d",
    "spam_stateless/gas.csv": "9fb02ade04a118073a897582d815ec9b88f80b2b4827ed1835e722d6fee8ff11",
    "spam_stateless/summary.txt": "e63c33672245e4fe28278f558b491268208e074e0c39ad7ec855b6e36dc5a1da",
    "stateless_10_bids/audit.json": "acbbd1a59cf44ac4261fdd47701db8360522def0db9dc850452aa28ae1ba8554",
    "stateless_10_bids/chain.json": "ee7787e970a27a046284fdf4ced21f17fdba51e200123f03a6c0a7d7a4b4c728",
    "stateless_10_bids/gas.csv": "4b348b4419563514eb68dc68a1d457632358c6eb254a82413c54991a981aef80",
    "stateless_10_bids/summary.txt": "3b2ee749cc1f2ef44ded7f56c7303a5715942565ac272d0d19a8c2e5d6613f7d",
    "withheld_key/audit.json": "6619ade4a374a237d23b32c57550f14153aa5a79f710957844e1eda728c13ab6",
    "withheld_key/chain.json": "84fbc2c71b43a8dd3e31b3210729639521e0ea63c2d2af687b63c980793d7806",
    "withheld_key/gas.csv": "c74dbadfa59673b1b84504bbfd4677565997406f8b8f51a27fb5e42350edada2",
    "withheld_key/summary.txt": "e8237135423bd849b5e6f4e92f6ea4e36fa05a3075cb692f1bd8667aa8de0722",
}

# SHA-256 over the sorted "<scenario>/<file> <sha256hex>\n" lines of the
# chain.json and audit.json entries above
GOLDEN_CROSS_CHECK = "d4d2b69e0190fee1af82b4a99c21d1aaf196578e8afe1f7ff55f67dad244a627"

# SHA-256 of what `tendersim audit <chain.json> --out <file>` writes for each
# bundled scenario's chain.json
AUDIT_OUT_GOLDEN = {
    "early_key_reveal": "92634e29440b00614b7c8379f8972567b8bd55f905c3457b5eac95d2aedfe8c2",
    "erased_bid": "1d53fa1fdf875261e439ab24ebcd534b64d88727f4fcbcc9fbb88a654022287d",
    "forged_cert": "0fd890d60acc32dc7e20892cb10f9459b81c20ab5b541176ca636fa7d5647879",
    "full_track_10_bids": "0825476bc2d5d8f7ff98f9b18e0c7091ebbf07f2f987dbceb06772c240bf8394",
    "late_bid": "ba5a2d048821eb46bab4fca3cf7c6df753d79380f5a5238d2af024be0a649fdd",
    "mutated_tender": "e039b8b8860298c864070cb15852d79497fd8d35af74207c8d13293a84d41da8",
    "protected_10_bids": "edd78b01f8bbb1d726052fae2bc55410536681234736eb68a0bfde41987582f2",
    "rigged_winner": "16875c2bf6b6823ed89d453ebd7547fbf0816eb0e2aa7ebb8b09e1521dc81f54",
    "spam_full_track": "7c9a2e8e6026e3f7669649aa99490b03ed612c8ce7f5b10a8254bb315cc8497a",
    "spam_protected": "ab214440cd69007e84f1d33ed4cc0bc292b85cead1bde30398681fed117a5640",
    "spam_stateless": "089cc93e0356453cb4ca4e47a90d6d51d3a931bc55baa870188758c327116edb",
    "stateless_10_bids": "b9994f3f41d47e09d5cd6d66ef5c915676ecc154740ef319e4f37a54b76c4e6c",
    "withheld_key": "a923a265123eee8788b8dc711ff30e6cde216737ac9d81779fa7b196dcba2abe",
}
# The head block hash of each bundled scenario's chain. It commits to every
# block and transaction hash before it, so it pins the ledger itself, apart
# from how an export spells it.
HEAD_BLOCK_HASH = {
    "early_key_reveal": "0x264cf5990970ea2aed42f312b73a3675656ee3513196acf984d97c20e4d28cf3",
    "erased_bid": "0xb44509e321f0ebc0034a5685c9b6b9407f08a85581d350e07c54bbaf4a87fe1f",
    "forged_cert": "0x353404627bd6344fe608407780c242d013c3526860ce7c4186dd7b57980837ab",
    "full_track_10_bids": "0x1df3b743d28fffaa656b017309c06c753b9794d55680856f3195c0866736d9c6",
    "late_bid": "0x05f3f6594f4332cbf2b3a609a02263f63a752d91e0b5251b40543ae8414aea78",
    "mutated_tender": "0xa80858cb1c87896db0accb78890376e4db2d244c8c9e0697cb07dd562d2e892c",
    "protected_10_bids": "0x56b2182aa7160f1f088c6fb35a4842d8c8642830040875e78276b3c900e3c9cf",
    "rigged_winner": "0xd34fe672f4ed5ffe58f363c4a6214b60d7679f2681e9dd5fadfdf40903dbfd9e",
    "spam_full_track": "0xa8c75afe945c2dc04cf7a6734995eb9bd2b1a72d3645c66f0f5eba6e69cb4720",
    "spam_protected": "0xcbfb78063c2524cdfb905815c7156adf229153440f6990761d658ddf0ce5db7c",
    "spam_stateless": "0x81168326eab3bc3b0a744c4b390f91028c5298eed3ae902f33ddc753a8fd378f",
    "stateless_10_bids": "0xaba19e01fd11b21e1979437d5fbc84eeb5b7482729face3d622093327b2cc6f6",
    "withheld_key": "0x30534cd849328d86c74b2a9d350baa404c8bde9b4b5d99891d2dee1c70dc0bd1",
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
def test_json_reports_are_strict_canonical_json(scenario, run_dir):
    for report in ("audit.json", "chain.json"):
        assert_strict_canonical_json((run_dir(scenario) / report).read_bytes())


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_head_block_hash_matches_golden(scenario, run_dir):
    export = json.loads((run_dir(scenario) / "chain.json").read_bytes())
    assert export["blocks"][-1]["block_hash"] == HEAD_BLOCK_HASH[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_created_contract_is_disclosed_at_its_senders_derived_address(scenario, run_dir):
    # a receipt writes no created address: each accepted transaction of a kind that
    # creates a contract created one at contract_address(sender, nonce), and the export
    # discloses those contracts and no other
    export = json.loads((run_dir(scenario) / "chain.json").read_bytes())
    created = [chain_surgery.created_address(tx) for block in export["blocks"]
               for tx in block["transactions"]]
    assert sorted(address for address in created if address is not None) == \
        sorted(export["contracts"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_citizen_audit_report_matches_golden_digest(scenario, run_dir, tmp_path):
    report = tmp_path / "citizen.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["audit", str(run_dir(scenario) / "chain.json"), "--out", str(report)])
    assert code == (1 if scenario in AUDIT_FAILS else 0)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == AUDIT_OUT_GOLDEN[scenario]
    assert_strict_canonical_json(report.read_bytes())
