import re
from pathlib import Path

from totalcorr.cli import parse_config_file
from totalcorr.harness import ExperimentConfig

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_tour_runs():
    # the tour's names and signatures are checked by running it as written
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library quick tour", "exec"), {})


def test_example_config_is_the_defaults(tmp_path):
    # the README presents its example config as the protocol's defaults
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(# config\.txt\n.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) == 1
    path = tmp_path / "config.txt"
    path.write_text(blocks[0])
    assert parse_config_file(path) == ExperimentConfig()
