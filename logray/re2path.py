"""Names kept for ``perfbench/layers.py``; both now run the compiled scanner."""

from logray.vparse import VectorParser


def compile_re2(fmt):
    return fmt


class Re2Parser(VectorParser):
    def __init__(self, fmt, compiled=None):
        super().__init__(fmt)

    def parse_array(self, texts, interpreter=None):
        return super().parse_array(texts)
