"""Clear qubitsim's memos, for tests and scripts that need channels built cold.

Every lru_cache found in qubitsim's namespace is cleared, so a memo added
to qubitsim later is cleared without an edit here or at a call site.
"""
from cryomux import qubitsim


def clear_qubitsim_memos() -> list:
    """Clear every lru_cache in qubitsim's namespace and return them."""
    memos = [value for value in vars(qubitsim).values() if hasattr(value, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    return memos
