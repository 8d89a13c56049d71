"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion; each test also prints a PASS line visible with -s.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from adaptmeter import (
    VariabilityProfile,
    bind_aspects,
    enumerate_slots,
    find_join_points,
    linear_weight_oracle,
    match_selector,
    parse_selector,
    process_adaptability,
    variability_value,
)
from adaptmeter.cli import main
from conftest import FIXTURES_DIR, REPO_ROOT, SRC_DIR
from randtrees import random_process, random_profile, shuffle_with_profile

TRAVEL = str(FIXTURES_DIR / "travel_booking.bpel")
LINEAR = str(FIXTURES_DIR / "travel_booking_linear.bpel")
MINI = str(FIXTURES_DIR / "booking_mini.bpel")
ASPECTS_DIR = str(FIXTURES_DIR / "aspects")
VERIFY = str(FIXTURES_DIR / "verify_request.aspect.xml")

FLIGHT_SELECTOR = '//process[@name="TravelBooking"]//invoke[@operation="bookFlight"]'


def _saturated_profile(process, config):
    return VariabilityProfile.from_assignments(
        (slot.path, slot.advice_type) for slot in enumerate_slots(process, config)
    )


def test_criterion_1_worked_example_reproduction(capsys, travel_process, travel_aspects, config):
    started = time.perf_counter()
    code = main(["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 1.0

    profile = bind_aspects(travel_process, travel_aspects, config)
    vv = [variability_value(profile, path, config) for path, _ in find_join_points(travel_process, config)]
    assert vv == [0, 3, 2, 1, 0]

    payload = json.loads(out)
    assert abs(payload["pam"] - 7 / 24) < 1e-12
    assert abs(payload["pam"] - 0.29) <= 0.005
    assert payload["pam_exact"] == "7/24"
    switch = next(node for node in payload["nodes"] if node["kind"] == "switch")
    assert abs(switch["vd"] - 5 / 6) < 1e-12
    assert abs(switch["vd"] - 0.835) <= 0.01
    print(f"PASS criterion 1: worked example PAM=7/24 (analyze ran in {elapsed:.3f}s)")


def test_criterion_2_extremes(travel_process, config):
    empty = process_adaptability(travel_process, VariabilityProfile.empty(), config)
    assert empty.pam == Fraction(0)
    assert float(empty.pam) == 0.0

    saturated = process_adaptability(travel_process, _saturated_profile(travel_process, config), config)
    assert len(enumerate_slots(travel_process, config)) == 15
    assert saturated.pam == Fraction(1)
    assert float(saturated.pam) == 1.0
    print("PASS criterion 2: PAM extremes are exactly 0 and 1")


def test_criterion_3_sweep_shape(capsys):
    code = main(["sweep", TRAVEL, "--cases", "3", "--seed", "42"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "case_id,count,pam"
    series: dict[int, list[float]] = {}
    for line in lines[1:]:
        case_id, count, pam = line.split(",")
        series.setdefault(int(case_id), []).append((int(count), float(pam)))
    assert sorted(series) == [0, 1, 2]
    for pams in series.values():
        assert [count for count, _ in pams] == list(range(16))
        values = [pam for _, pam in pams]
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert all(a <= b for a, b in zip(values, values[1:]))

    code = main(["sweep", MINI, "--exhaustive"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "count,min_pam,mean_pam,max_pam"
    assert len(rows) == 11  # counts 0..9 on the 9-slot fixture
    for row in rows[1:]:
        _, low, mean, high = row.split(",")
        assert float(low) <= float(mean) <= float(high)
    print("PASS criterion 3: sweep series monotone 0 -> 1; exhaustive envelope ordered")


def test_criterion_4_oracle_equivalence(config):
    started = time.perf_counter()
    rng = random.Random(40400)
    for _ in range(1000):
        process = random_process(rng, max_depth=4, max_nodes=20)
        profile = random_profile(rng, process, config)
        aggregated = process_adaptability(process, profile, config).pam
        oracle = linear_weight_oracle(process, profile, config)
        assert aggregated == oracle
        assert abs(float(aggregated) - float(oracle)) < 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 4: tree aggregation == weight oracle on 1000 random trees ({elapsed:.2f}s)")


def test_criterion_5_monotonicity(config):
    rng = random.Random(50500)
    for _ in range(1000):
        process = random_process(rng, max_depth=4, max_nodes=20)
        order = enumerate_slots(process, config)
        rng.shuffle(order)
        previous = Fraction(0)
        for count in range(len(order) + 1):
            profile = VariabilityProfile.from_assignments(
                (slot.path, slot.advice_type) for slot in order[:count]
            )
            pam = process_adaptability(process, profile, config).pam
            assert pam >= previous
            previous = pam
    print("PASS criterion 5: PAM never decreased over 1000 incremental placements")


def test_criterion_6_pointcut_matching(linear_process):
    flight = match_selector(parse_selector(FLIGHT_SELECTOR), linear_process)
    assert len(flight) == 1
    assert str(flight[0]) == "/process/sequence[0]/invoke[2]"  # the bookFlight invoke

    invokes = match_selector(parse_selector("//invoke"), linear_process)
    assert len(invokes) == 2
    print("PASS criterion 6: selector hits exactly the bookFlight invoke; //invoke hits two")


def test_criterion_7_permutation_invariance(config):
    rng = random.Random(70700)
    for _ in range(200):
        process = random_process(rng)
        profile = random_profile(rng, process, config)
        pam = process_adaptability(process, profile, config).pam
        shuffled, shuffled_profile = shuffle_with_profile(process, profile, rng)
        shuffled_pam = process_adaptability(shuffled, shuffled_profile, config).pam
        assert shuffled_pam == pam
        assert abs(float(shuffled_pam) - float(pam)) < 1e-12
    print("PASS criterion 7: PAM invariant under child/branch permutation on 200 trees")


def test_criterion_8_byte_identical_output():
    commands = [
        ["analyze", TRAVEL, "--aspects", ASPECTS_DIR],
        ["analyze", TRAVEL, "--aspects", ASPECTS_DIR, "--format", "json"],
        ["sweep", TRAVEL, "--cases", "3", "--seed", "42"],
        ["compare", TRAVEL, LINEAR, "--aspects", ASPECTS_DIR, "--aspects2", VERIFY],
    ]
    for argv in commands:
        outputs = []
        for hash_seed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(SRC_DIR)
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-m", "adaptmeter", *argv],
                capture_output=True,
                cwd=REPO_ROOT,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
    print("PASS criterion 8: repeat runs byte-identical across hash seeds")
