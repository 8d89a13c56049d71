from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
FIXTURES_DIR = REPO_ROOT / "fixtures"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

from adaptmeter import AnalysisConfig, parse_aspect, parse_process  # noqa: E402


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def travel_process():
    """The worked-example process: root sequence with a two-branch switch, 5 join points."""
    return parse_process((FIXTURES_DIR / "travel_booking.bpel").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def linear_process():
    """The flat variant: receive, two invokes (bookFlight, bookHotel), reply."""
    return parse_process((FIXTURES_DIR / "travel_booking_linear.bpel").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def mini_process():
    """Reduced 3-join-point (9-slot) process for exhaustive sweeps."""
    return parse_process((FIXTURES_DIR / "booking_mini.bpel").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def travel_aspects():
    """Six aspects attaching 3/2/1 advice types to the three invokes."""
    return [parse_aspect(path.read_text(encoding="utf-8")) for path in sorted((FIXTURES_DIR / "aspects").glob("*.xml"))]


@pytest.fixture(scope="session")
def verify_aspect():
    return parse_aspect((FIXTURES_DIR / "verify_request.aspect.xml").read_text(encoding="utf-8"))


@pytest.fixture
def config() -> AnalysisConfig:
    return AnalysisConfig()
