"""The chain tools run the CLI's model-building stages, in the CLI's order."""

import importlib.util
import re
from pathlib import Path

from svpipe import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _chain_stages():
    """Every stage of cli.COMMANDS before score: the chain that builds the models."""
    names = list(cli.COMMANDS)
    return names[: names.index("score")]


def test_chain_sha256_runs_every_stage_of_the_chain_in_order():
    text = (TOOLS / "chain_sha256.sh").read_text()
    loop = re.search(r"^for name in (.*?); do$", text, re.M | re.S).group(1)
    stages = loop.replace("\\\n", " ").split()
    # the stages run on their own after the loop, e.g. train-e2e
    stages += re.findall(r'^stage "\$config" (\S+) ', text, re.M)
    assert stages == _chain_stages()


def test_stage_times_orders_its_rows_by_the_chain():
    spec = importlib.util.spec_from_file_location("stage_times", TOOLS / "stage_times.py")
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    assert stage_times.CHAIN == _chain_stages()
