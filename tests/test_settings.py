"""Declared setting ranges: every settings dataclass checks its own fields."""

from __future__ import annotations

import dataclasses
import math

import pytest

from deskicl.engine import TrainConfig
from deskicl.harness import DataSection, EvalSection
from deskicl.model import ModelConfig
from deskicl.settings import parse


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DataSection(difficulty_levels=13), "difficulty_levels = 13 is not in [1, 12]"),
        (lambda: ModelConfig(max_context=2), "max_context = 2 is not in [3, inf)"),
        (lambda: DataSection(test_fraction=0.0), "test_fraction = 0.0 is not in (0, 1)"),
        (lambda: TrainConfig(lr=math.nan), "lr = nan is not in (0, inf)"),
        (lambda: TrainConfig(n_prompt_choices=()), "n_prompt_choices = () needs at least one count, each at least 1"),
        (lambda: TrainConfig(n_prompt_choices=(0,)), "n_prompt_choices = (0,) needs at least one count, each at least 1"),
        (lambda: TrainConfig(n_prompt_choices=(1, -1)), "n_prompt_choices = (1, -1) needs at least one count, each at least 1"),
        (lambda: EvalSection(max_steps_factor=math.inf), "max_steps_factor = inf is not in (0, inf)"),
    ],
)
def test_settings_built_in_code_are_checked(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_every_numeric_setting_declares_a_range():
    unbounded = [
        f"{cls.__name__}.{f.name}"
        for cls in (ModelConfig, DataSection, TrainConfig, EvalSection)
        for f in dataclasses.fields(cls)
        if f.type in ("int", "float") and "bound" not in f.metadata
    ]
    assert unbounded == []


def test_parse_reads_header_bools_and_rejects_other_text():
    flag = next(f for f in dataclasses.fields(ModelConfig) if f.name == "prompt_reasoning")
    assert (parse("0", flag), parse("1", flag)) == (False, True)
    with pytest.raises(ValueError, match="prompt_reasoning = 'yes' is not 0 or 1"):
        parse("yes", flag)
