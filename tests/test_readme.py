import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_quick_tour_runs():
    # the tour's names and signatures are checked by running it as written
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library quick tour", "exec"), {})
