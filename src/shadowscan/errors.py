"""The one exception the package raises for input it rejects."""


class InputError(ValueError):
    """An image, mask, checkpoint, setting or call argument is malformed
    or out of range; the message says which and why."""
