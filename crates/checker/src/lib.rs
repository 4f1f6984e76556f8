//! # crossbid-checker
//!
//! The correctness backstop for both crossflow runtimes: a **protocol
//! invariant oracle** plus a **controlled-interleaving explorer**.
//!
//! The paper's protocols make conservation promises — every submitted
//! job completes exactly once or is accounted to a crash, a contested
//! job goes only to a worker that bid before the contest closed,
//! redistribution reclaims only from the dead (§5, §6.2) — but
//! neither runtime *checks* them; they just behave. This crate closes
//! the loop:
//!
//! * [`oracle`] is a pure state machine over the shared control-plane
//!   event log ([`crossbid_crossflow::SchedLog`], also reconstructible
//!   from an exported JSONL stream). It knows nothing about either
//!   runtime's internals, so the same invariants hold the simulation
//!   engine and the threaded runtime to one standard.
//! * [`scenario`] defines small, fully-specified workloads as *data*:
//!   one [`Scenario`] type with optional axes (worker faults, link
//!   faults, master crash, membership churn, DAG load, replication,
//!   federation), run on either runtime from one [`Replay`] value.
//! * [`explorer`] sweeps seeded runs of a scenario ([`explore`]), runs
//!   the oracle after every run, checks completion conservation
//!   (cross-checking threaded job-list runs against the deterministic
//!   simulation), and on failure reports the [`Replay`] that
//!   reproduces it — for threaded job-list scenarios shrunk to a
//!   minimal job subset, with the recorded delivery schedule.
//!
//! The checker validates *itself* through
//! [`crossbid_crossflow::ProtocolMutation`]: each variant
//! re-introduces one protocol bug fixed in PR 1 (behind the
//! `protocol-mutation` cargo feature of `crossbid-crossflow`), and the
//! test suite asserts the explorer finds a violation for every one.

pub mod explorer;
pub mod oracle;
pub mod scenario;

pub use explorer::{explore, Activity, ExploreConfig, Failure, Report};
pub use oracle::{check_log, Oracle, OracleOptions, Violation};
pub use scenario::{
    Family, FaultDef, Federation, JobDef, Load, Mutation, Outcome, Protocol, Replay, Replication,
    Runtime, Scenario,
};
