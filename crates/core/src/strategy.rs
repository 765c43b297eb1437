//! Per-structure selection of the counted-load protocol.
//!
//! The repo carries two ways to take (or avoid taking) a reference count
//! on a shared-pointer read, and the structures in `lfrc-structures`
//! select between them at construction time:
//!
//! | strategy | counted load costs | displaced counts | reference |
//! |---|---|---|---|
//! | [`Strategy::Dcas`] | one software-DCAS loop ([`crate::ops::load`]) | released eagerly | the paper's Figure 2 — the executable spec |
//! | [`Strategy::DeferredDec`] | plain load + CAS-from-nonzero promote | parked on the decrement buffer | DESIGN.md §5.9 |
//!
//! `Dcas` is deliberately kept as the reference implementation: the
//! differential harness (`tests/strategy_diff.rs`) runs identical
//! operation sequences through `Dcas` and `DeferredDec` instances and
//! asserts observable equivalence across explored schedules, so the
//! slow-but-paper-faithful path checks the fast path.

use std::fmt;

/// Which counted-load protocol a structure instance uses, fixed at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Strategy {
    /// The paper-faithful protocol: every counted load is `LFRCLoad`'s
    /// DCAS (increment the count atomically with re-checking the
    /// pointer). Slow (~20× a native CAS under the software DCAS
    /// emulation, experiment E7) but the executable specification the
    /// fast path is differentially tested against.
    Dcas,
    /// The deferred fast path of DESIGN.md §5.9: pin-scoped uncounted
    /// reads ([`crate::defer::Borrowed`]), CAS-from-nonzero
    /// [`promote`](crate::defer::Borrowed::promote) when a counted
    /// reference is needed, and displaced counts parked on the
    /// per-thread decrement buffer.
    #[default]
    DeferredDec,
}

impl Strategy {
    /// All strategies, in spec-first order (benchmark sweeps iterate
    /// this).
    pub const ALL: [Strategy; 2] = [Strategy::Dcas, Strategy::DeferredDec];

    /// Stable label used in benchmark tables and `LFRC_STRATEGY`.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Dcas => "dcas",
            Strategy::DeferredDec => "deferred-dec",
        }
    }

    /// Parses a strategy label (as produced by [`Strategy::name`]).
    pub fn parse(s: &str) -> Option<Strategy> {
        Strategy::ALL.into_iter().find(|st| st.name() == s)
    }

    /// Reads `LFRC_STRATEGY` from the environment (falling back to the
    /// default, [`Strategy::DeferredDec`], when unset). Benchmarks use
    /// this as the root selector so a whole binary can be re-run under a
    /// different strategy without recompiling.
    ///
    /// # Panics
    ///
    /// On an unrecognized value — a silently ignored typo would bench
    /// the wrong strategy.
    pub fn from_env() -> Strategy {
        match std::env::var("LFRC_STRATEGY") {
            Ok(v) => Strategy::parse(&v)
                .unwrap_or_else(|| panic!("LFRC_STRATEGY={v:?}: expected dcas | deferred-dec")),
            Err(_) => Strategy::default(),
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("nonsense"), None);
    }

    #[test]
    fn default_is_deferred_dec() {
        assert_eq!(Strategy::default(), Strategy::DeferredDec);
    }
}
