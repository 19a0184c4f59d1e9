"""The README's worked example runs as written, and its configs expand."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import kgzsl
from kgzsl import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_worked_example_predicts_the_argmax():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    src_dir = str(Path(kgzsl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    done = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    *_, scores_line, predicted_line = done.stdout.strip().splitlines()
    scores = ast.literal_eval(scores_line)
    assert sorted(scores) == ["class/cat", "class/dog"]
    # the highest score, ties going to the smaller id
    assert ast.literal_eval(predicted_line) == [min(scores, key=lambda c: (-scores[c], c))]


def test_config_snippets_expand():
    # a snippet naming a deleted or misspelled key fails here, as it would in a run
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        config.expand(json.loads(block))
