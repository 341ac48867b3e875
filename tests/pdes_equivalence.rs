//! Tier-1 surface for `crates/core/tests/pdes_equivalence.rs`: the engine's
//! one event loop and the one simulated network are trusted on the strength
//! of the serial-vs-sharded suites, so the root `cargo test` runs them too.

#[path = "../crates/core/tests/pdes_equivalence.rs"]
mod suite;
