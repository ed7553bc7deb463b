"""Golden-records equivalence: the current kernel vs the checked-in fixture.

``tests/golden/kernel_records.json`` holds the records of the scenario
defined in :mod:`tests.golden_kernel`.  Its four kernel-family entries trace
back to the *seed* kernel (the pre-tuple-heap, dataclass-packet
implementation) and have survived every refactor since; entries for later
subsystems (stale-telemetry BFC-Est, the flow-graph launcher) were appended
when those subsystems landed, after verifying the existing entries byte-
identical.  These tests assert that today's kernel reproduces the fixture
byte-for-byte — flow completions, counters, samplers, event counts — so
every performance refactor is provably behaviour-preserving.  If a PR
*intends* to change behaviour, regenerate the fixture with
``python tests/golden_kernel.py --write`` and say so in the PR.
"""

import json

from repro.campaign import Campaign, SerialExecutor

from tests.golden_kernel import (
    GOLDEN_PATH,
    GOLDEN_SCHEMES,
    canonical_records,
    compute_golden_records,
    golden_configs,
    load_golden_fixture,
)


class TestGoldenRecords:
    def test_fixture_exists_and_covers_all_schemes(self):
        fixture = load_golden_fixture()
        assert sorted(fixture) == sorted(GOLDEN_SCHEMES)
        for scheme, records in fixture.items():
            assert records["flows"], f"{scheme} fixture has no flow records"
            assert records["events_processed"] > 0

    def test_kernel_matches_seed_fixture(self):
        """The refactored kernel reproduces the seed kernel bit-for-bit."""
        fixture = load_golden_fixture()
        # Round-trip through JSON so float formatting and key stringification
        # match the fixture exactly (JSON round-trips doubles losslessly).
        computed = json.loads(json.dumps(compute_golden_records(), sort_keys=True))
        for scheme in GOLDEN_SCHEMES:
            for key in fixture[scheme]:
                assert computed[scheme][key] == fixture[scheme][key], (
                    f"{scheme}: {key} diverged from the seed kernel "
                    f"(fixture {GOLDEN_PATH})"
                )
        assert computed == fixture

    def test_serial_and_parallel_records_identical(self):
        """The same scenario through serial and process-pool executors."""
        configs = {
            scheme: config
            for scheme, config in golden_configs().items()
            if scheme in ("BFC", "DCQCN")
        }
        serial = Campaign.from_configs("golden-sp", configs).run(
            executor=SerialExecutor()
        )
        parallel = Campaign.from_configs("golden-sp", configs).run(cores=2)
        assert serial == parallel
        # The full experiment payloads must agree too, not just the tidy
        # records: compare the canonical reduction per scheme.
        for scheme in configs:
            name = f"golden-sp/{scheme}"
            a = canonical_records(serial.experiment_result(name))
            b = canonical_records(parallel.experiment_result(name))
            assert a == b, f"{scheme}: serial vs parallel records diverged"
