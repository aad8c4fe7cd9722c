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
    "early_key_reveal/audit.json": "d9f6da450ada68c8e75df7446bc755a4098203040d12b203fbe50fa5231fb41b",
    "early_key_reveal/chain.json": "f06cdde6e725ca57fcb68380fc0e34b29d06fdf226e86552d6e3fac4333a0899",
    "early_key_reveal/gas.csv": "76904294894527e9feafbe9f65d532af9e123b2bbab572e11bd2236f6ddacbd6",
    "early_key_reveal/summary.txt": "5ba861ed4baae425328eebae31169557c270b8e4f5d5ddc99b468cba32cae7f5",
    "erased_bid/audit.json": "e45a59096e2420b7048254fb1e5e13e988c2dedb7527c288a12b62cf5a09ecca",
    "erased_bid/chain.json": "d149758102687a7f07354c6a21f33db394858ce02c0aa9bcf7d6201be4d7e1c6",
    "erased_bid/gas.csv": "7a05f9152abb74d0a87dcc3a309576bbfb2198c9b919c128dc3f05180ad03c39",
    "erased_bid/summary.txt": "556d78f40c30c360cfea5769e5ca39bf251f67bb38c58c2504e5efa7303b111e",
    "forged_cert/audit.json": "5a778f691333962567999146689fc4a0717a480f7a47928b930c950816dac46c",
    "forged_cert/chain.json": "b6a7156e5ab4d1abc124ed41057a6f34a9d42a5558b317ca501c37c687d86b1f",
    "forged_cert/gas.csv": "ee85bd2d9d9a69375863b46a64fdfb65855276efd4e65a7a51b50e7b5fb58d93",
    "forged_cert/summary.txt": "502108da42df59ec22170260de90b30d8874353705472ea733c616797ba1c984",
    "full_track_10_bids/audit.json": "68e973424f1b2d631573d15e78c9e451e68a13bcae803340d0adbda0597902a1",
    "full_track_10_bids/chain.json": "75be172bc68aa9bbfce68423ee9f279919fcc9d06e7cd48875249520a262f576",
    "full_track_10_bids/gas.csv": "7a05f9152abb74d0a87dcc3a309576bbfb2198c9b919c128dc3f05180ad03c39",
    "full_track_10_bids/summary.txt": "86e3eeff5627985a8465e79e5f0ef1343bba13da088c16b2dc88fcd31e772d13",
    "late_bid/audit.json": "be02bcd29296ea876b758c99ed91f107d26b2608a6cdb708eda47425b943fe11",
    "late_bid/chain.json": "8ed9b5ddad1beb05bdb162406837261fbaf1e046fa04a94e9a65fc4d840d1062",
    "late_bid/gas.csv": "1e2cf1024b4d1c8c9dd92af8add38ea85c454300b30d52b8476f912e0f27ccfd",
    "late_bid/summary.txt": "61c384c31bc56741a9d9377924e8c22fdafe2d45aeb6596148dda77ce131ecc0",
    "mutated_tender/audit.json": "c421e11260dd5e0786280c7948420f34ea2ba4465ffabd429d7a7019f54bea27",
    "mutated_tender/chain.json": "1a5ad079af4522619f074bc00e698c379fef0993229fda8165f8a856345f4324",
    "mutated_tender/gas.csv": "61d4ff5a192738b021f6bbf58c24eb44919e6445a89c5c2b29ded07d567db00b",
    "mutated_tender/summary.txt": "ea4d145cad2bef55f6d0e4af6a4ee9ea73ab77d3c30ed7a3202cbbca8bd68836",
    "protected_10_bids/audit.json": "69612096f6952416c67510ab7c5dbb4d1fc7d9a10f240f2a44609c0a2e99d21a",
    "protected_10_bids/chain.json": "c7465b0cbaa6d1e13c9599d7215a06bdc52392f85a7d9298cebac1f074d50c24",
    "protected_10_bids/gas.csv": "61d4ff5a192738b021f6bbf58c24eb44919e6445a89c5c2b29ded07d567db00b",
    "protected_10_bids/summary.txt": "b166cc4b4ca2ddc5ea4ec4d886539e6da5b5a632c9c6c3a70b9805df852908b1",
    "rigged_winner/audit.json": "8867234935392d2f7e26df44ed924bd719a09869707c6335aa39d065cc9509f4",
    "rigged_winner/chain.json": "c44b826912c6698dd27b7f64ce06a3e9ac95afe05bf8cd0550951d53eab10586",
    "rigged_winner/gas.csv": "7a05f9152abb74d0a87dcc3a309576bbfb2198c9b919c128dc3f05180ad03c39",
    "rigged_winner/summary.txt": "a28a23ea49de33762e40219f0614f6f19ea86aacd51e947240310c8c2086f34c",
    "spam_full_track/audit.json": "d478c421cd724576092f5dd7b2677282d7ea2639c60e7c38c357286ff3f4f53e",
    "spam_full_track/chain.json": "e8a992aaf6df85b5c18c6ef09da27bf7c413c69515c48367883819f1f312de6e",
    "spam_full_track/gas.csv": "a5517fe9e586030aaf8fd12892daa3a59055dcb31a734b7b747b364a5a26b647",
    "spam_full_track/summary.txt": "c2ad370736e23e1dd208ffd9c007e23b15e8b76851ee98e282b43c15928e6197",
    "spam_protected/audit.json": "ebd7a4d1a9b753629288422bf4be2b214fc9c5ba6a6e3995b288cb613813ad47",
    "spam_protected/chain.json": "db0b3631691f4be87f07db6720b786838850fc0a7912dc5bb49ae08c1e383a07",
    "spam_protected/gas.csv": "42e672170ff40f4543ad754636b8dfd3f3b44195205c092d17ed614f86d181ac",
    "spam_protected/summary.txt": "e750a3a114fc39072659e7a17d721a3ec93ce399d3b4f939345c22083b6d0d59",
    "spam_stateless/audit.json": "67892fae9b4694a802b89be7c3625e3ed85e13d917ef673fc92744024eb2d9df",
    "spam_stateless/chain.json": "0e00efce68d58680b8a1ef3a2687f6c52a6e40597ea58947c21cd994827e4b3c",
    "spam_stateless/gas.csv": "98fe07217cd1086756db994b4a5ab3fb53453adcfa75a9122be50c1b273292c3",
    "spam_stateless/summary.txt": "e63c33672245e4fe28278f558b491268208e074e0c39ad7ec855b6e36dc5a1da",
    "stateless_10_bids/audit.json": "542c2bcfaa125b8383c4e316520036319c7830beded39cd404257df6ade0057e",
    "stateless_10_bids/chain.json": "e148d81fb86e8ba39ca6f196e00e0b85ad244d1a536ac66f97f863a11b04235b",
    "stateless_10_bids/gas.csv": "68d0a5b0dc0b8de13e1f86b9d3f05956f1abdc08d368f5353d283ec5e0fe4115",
    "stateless_10_bids/summary.txt": "3b2ee749cc1f2ef44ded7f56c7303a5715942565ac272d0d19a8c2e5d6613f7d",
    "withheld_key/audit.json": "021d082a27f806d65d89f5664e2992a8ea1ed461876ee79a44a6f5fcdc63e797",
    "withheld_key/chain.json": "03cb65f6739a5d5c8b90e6dc6c258c0157c20fbc652efb1a6db43e816fe2e9c1",
    "withheld_key/gas.csv": "f105abadcc16aeb0ee28b8b9338f2b4976626be35b235b870210f98c3add553c",
    "withheld_key/summary.txt": "e8237135423bd849b5e6f4e92f6ea4e36fa05a3075cb692f1bd8667aa8de0722",
}

# SHA-256 over the sorted "<scenario>/<file> <sha256hex>\n" lines of the
# chain.json and audit.json entries above
GOLDEN_CROSS_CHECK = "184b5f288255499a27d0c809b7a996a40d14d9f4447e73cbf3487ce5302379bd"

# SHA-256 of what `tendersim audit <chain.json> --out <file>` writes for each
# bundled scenario's chain.json
AUDIT_OUT_GOLDEN = {
    "early_key_reveal": "f9e2451e550c2609cb53680380a93d4ac19337b5e45e84aee2aedd52f099a690",
    "erased_bid": "1051af763f1a9b2a547f4b432f2a0673a1838c58609475794e8f93be93bb4ba0",
    "forged_cert": "f1eb4618e8701238de27eb5c3dd40ceb70fddb6befa9dc9b571c6a0b16366e71",
    "full_track_10_bids": "b812eb49fe404201a6c9f1ae4a7d3ab07a339ed77e61b705dd5a84ff951e2771",
    "late_bid": "b14d419230237eb757881b510a8efb09e874172d908982e9bd2bc8b22da18330",
    "mutated_tender": "d0a4ca237c7f4afab209f718ca0e46242e66900e224fdedf63865910d636e006",
    "protected_10_bids": "4db81e96e0c75de6c44f98145b6bb9d60fb8052466c246c9d1502042f667d027",
    "rigged_winner": "3da8d202272cd33e3b9e445cf8fce9fd15b4b81211af647e0f2b9d227e3e54cd",
    "spam_full_track": "f9cfc8bc8d19729a70fb78e6b49b0942a597570f0875dfe2f97839b7fb2814fa",
    "spam_protected": "934babe015f0aa01680e48de1674b6b905a46c989804bd8d93ac22a09864066e",
    "spam_stateless": "15475015c12856591513359e4bee6435317262543f3500bacbfc5cfd719841d5",
    "stateless_10_bids": "89f86c4a94abbb1e05f7c68f067c1ab8b58faea655e26b8212b1bbd79248ef25",
    "withheld_key": "e144772c6955c6be9d25f5dfb4a435e26bceef19e60db62c37a3083075576bb8",
}
# The head block hash of each bundled scenario's chain. It commits to every
# block and transaction hash before it, so it pins the ledger itself, apart
# from how an export spells it.
HEAD_BLOCK_HASH = {
    "early_key_reveal": "0x651088646a86f36f02447b3083a821947b4b022f34efaafd82fe986fe5477c8c",
    "erased_bid": "0x94728aa08ee4b5150cc29399d36522e6fba4157fd7ca4a57c27c77572d4c09f2",
    "forged_cert": "0x6a9c8accff358ce0cb6786b87bb61f53697a0800d1aeb1fe94338152f6b9a700",
    "full_track_10_bids": "0x0e58735d43360ca2094ddd4457ee46093c04ffc40c54ee44cfd329cea800e733",
    "late_bid": "0xd43a03599c610c8336a3b3a4aea82a056c8925960d9115467fc3e0e5cef6c3c1",
    "mutated_tender": "0x8ba1e312f240ac89151030112a7c9c3ef36069d12ce2d77c420ac619918bd51e",
    "protected_10_bids": "0xee61bda321090574c975648dff8512dd0cac0813f6461305727df637be20c894",
    "rigged_winner": "0x237a6ea2ded45496a9bcbcb764fe50e03922726a0f5e217ba22d00a2aa0d35cb",
    "spam_full_track": "0x35d009e7da13fb183f2b7ab9c3751aa1a5d9e02e2b05635821bc0a0567d320e5",
    "spam_protected": "0xb054526d1133946b9997bdede8f1b231fb39c7736e535c1bb21dd84559da3b3b",
    "spam_stateless": "0x98788807265a6da22f2913b43cb068dcfa07cff0068214db0aeb0e8ed8572a14",
    "stateless_10_bids": "0x97f3d9e393cfbbdea8f586143b62b305b44db9c4d38be9aa429489032e9e5629",
    "withheld_key": "0x088b0fea23808e5b62c6ce71e1588c56fb9f4cb0f7611a73b5951f465952a38d",
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
