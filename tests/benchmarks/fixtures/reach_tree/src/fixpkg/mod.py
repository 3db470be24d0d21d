"""Functions a fixture consumer does and does not reach."""

import dataclasses


@dataclasses.dataclass
class Config:
    used: int = 1
    unused: str = "x"


class Widget:
    def __init__(self):
        self.value = 2

    @property
    def doubled(self):
        return self.value * 2

    @staticmethod
    def helper():
        return 3

    def never(self):
        return 4


def reached():
    def inner():
        return 5

    return inner()


def unreached():
    return 6


def excused():
    return 7
