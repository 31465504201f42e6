"""numpy, bound on first use: the presets that compute nothing with it never import it."""

import sys

__all__ = ["np"]


class _LazyNumpy:
    """Each package module's np until numpy is first used: the first attribute
    read imports numpy and rebinds every np global still holding this stand-in."""

    def __getattr__(self, name: str) -> object:
        import numpy

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith(f"{__package__}.") and vars(module).get("np") is self:
                module.np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()
