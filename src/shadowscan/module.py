"""Minimal parameter container for network blocks.

A module's parameters are its ``Tensor`` attributes, plus those of the
modules it holds directly or in lists and tuples; a module keeps no other
tensors. The walk follows instance attributes in insertion order, so
parameter naming is deterministic and doubles as the checkpoint
compatibility contract.
"""

from __future__ import annotations

from .autodiff import Tensor


class Module:
    def named_params(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        items: list[tuple[str, Tensor]] = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                items.append((prefix + name, value))
            elif isinstance(value, Module):
                items.extend(value.named_params(f"{prefix}{name}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        items.extend(item.named_params(f"{prefix}{name}.{i}."))
        return items

    def params(self) -> list[Tensor]:
        return [t for _, t in self.named_params()]

    def zero_grads(self) -> None:
        for t in self.params():
            t.zero_grad()
