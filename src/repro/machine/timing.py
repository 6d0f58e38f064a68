"""Cycle-cost model for the simulated hart.

The paper's prototype is an in-order Rocket core at 100 MHz where the
crypto-engine "completes the QARMA cipher in 3 cycles" (§4.2) and a CLB
hit returns the cached result immediately (§2.3.3).  This model assigns
a fixed cycle cost per instruction class; the crypto instructions are
charged by the engine itself (1 cycle on a CLB hit, 3 on a miss), so the
relative overhead of instrumented code emerges from execution rather
than being assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.isa import instructions as tab


@dataclass
class CostModel:
    """Per-instruction-class cycle costs (in-order, single-issue)."""

    default: int = 1
    load: int = 2
    store: int = 1
    mul: int = 3
    div: int = 20
    branch_taken: int = 2
    branch_not_taken: int = 1
    jump: int = 2
    csr: int = 1
    system: int = 3
    trap_entry: int = 4
    trap_return: int = 4
    #: Crypto costs live in the engine (hit/miss); kept here for reports.
    crypto_hit: int = 1
    crypto_miss: int = 3

    _class_cache: dict[str, str] = field(
        default_factory=dict, repr=False, compare=False
    )

    def costs(self) -> dict[str, int]:
        """The public cost fields by name: what a snapshot records, and
        what a block's cycle bound and compiled code fold in."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_")
        }

    def classify(self, mnemonic: str) -> str:
        cached = self._class_cache.get(mnemonic)
        if cached is not None:
            return cached
        if mnemonic in tab.LOADS:
            kind = "load"
        elif mnemonic in tab.STORES:
            kind = "store"
        elif mnemonic in ("mul", "mulh", "mulhsu", "mulhu", "mulw"):
            kind = "mul"
        elif mnemonic in (
            "div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"
        ):
            kind = "div"
        elif mnemonic in tab.BRANCHES:
            kind = "branch"
        elif mnemonic in ("jal", "jalr"):
            kind = "jump"
        elif mnemonic in tab.CSR_OPS:
            kind = "csr"
        elif mnemonic in tab.SYSTEM_OPS:
            kind = "system"
        elif mnemonic.startswith(("cre", "crd")) and mnemonic.endswith("k"):
            kind = "crypto"
        else:
            kind = "alu"
        self._class_cache[mnemonic] = kind
        return kind

    def cost(self, mnemonic: str, branch_taken: bool = False) -> int:
        """Cycle cost for one instruction (crypto is charged by the engine)."""
        kind = self.classify(mnemonic)
        if kind == "load":
            return self.load
        if kind == "store":
            return self.store
        if kind == "mul":
            return self.mul
        if kind == "div":
            return self.div
        if kind == "branch":
            return self.branch_taken if branch_taken else self.branch_not_taken
        if kind == "jump":
            return self.jump
        if kind == "csr":
            return self.csr
        if kind == "system":
            return self.system
        if kind == "crypto":
            return 0  # engine adds 1 (hit) or 3 (miss)
        return self.default

    def worst_case(self, mnemonic: str) -> int:
        """Most cycles one execution of ``mnemonic`` can charge here.

        Used by the block translator to bound a block's cycle footprint
        (crypto engine latency is added by the caller, which knows the
        engine's hit/miss costs).
        """
        if self.classify(mnemonic) == "branch":
            return max(self.branch_taken, self.branch_not_taken)
        return self.cost(mnemonic)
