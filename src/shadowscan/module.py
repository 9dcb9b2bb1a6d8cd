"""Minimal parameter container for network blocks.

A module's parameters are its ``Tensor`` attributes, plus those of the
modules it holds directly or in lists; a module keeps no other tensors.
One walk over instance attributes, in insertion order, serves both the
parameter names and ``silence``, so naming is deterministic and doubles
as the checkpoint compatibility contract.
"""

from __future__ import annotations

from collections.abc import Iterator

from .autodiff import Tensor


class Module:
    # names of the module's own tensors that silence() zeroes
    SILENT: tuple[str, ...] = ()

    def _members(self) -> Iterator[tuple[str, Tensor | Module]]:
        """Own tensors and child modules, list items named ``<list>.<i>``."""
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, Module)):
                yield name, value
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_params(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for name, value in self._members():
            if isinstance(value, Tensor):
                items.append((prefix + name, value))
            else:
                items.extend(value.named_params(f"{prefix}{name}."))
        return items

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def zero_grads(self) -> None:
        for t in self.params():
            t.zero_grad()

    def silence(self) -> None:
        """Zero the tensors named in SILENT, here and in every child module.

        The leaves name them so that every scan direction, conv MLP
        branch, skip projection and the decoder emit exact zeros: a
        silenced ShadowNet with residual output is the bitwise identity.
        """
        for name, value in self._members():
            if isinstance(value, Module):
                value.silence()
            elif name in self.SILENT:
                value.data[:] = 0.0
