"""A scripted random stream for the sampler tests."""

import numpy as np


class ScriptedStream:
    """Serves fixed standard uniforms as ``random`` draws and, like numpy, ``uniform(low, high)``
    as ``low + (high - low) * u``; the state is the position."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.position = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.position

    @state.setter
    def state(self, position):
        self.position = position

    def random(self, size):
        n = int(np.prod(size))
        out = self.values[self.position:self.position + n]
        assert len(out) == n, "script exhausted"
        self.position += n
        return out.reshape(size)

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)
