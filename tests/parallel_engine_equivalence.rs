//! Tier-1 surface for `crates/check/tests/parallel_engine_equivalence.rs` (see
//! `tests/pdes_equivalence.rs`). Its own test binary because the checker's
//! `set_sim_threads` knob is process-global and each suite serialises on
//! its own lock.

#[path = "../crates/check/tests/parallel_engine_equivalence.rs"]
mod suite;
