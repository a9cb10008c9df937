//! `vericomp-testkit` — the repository's hermetic testing toolkit.
//!
//! Replaces the external `rand`, `proptest` and `criterion` dev-dependency
//! surface with small in-repo equivalents, so `cargo build && cargo test`
//! works fully offline with path-only dependencies:
//!
//! * [`rng`] — seedable SplitMix64 / xoshiro256\*\* PRNG with the slice of
//!   the `rand` API the codebase used (`seed_from_u64`, `gen_range`,
//!   `gen_bool`).
//! * [`prop`] — a minimal property-testing harness: generator combinators,
//!   a run loop with greedy shrinking, `TESTKIT_CASES` / `TESTKIT_SEED`
//!   environment overrides, and a persisted-regression-seed file format
//!   that also ingests legacy `proptest-regressions` files.
//! * [`fleet`] — the seeded random flight-control workload generator
//!   (moved here from `vericomp-dataflow`, which keeps only the curated
//!   `named_suite`), with a validated config builder and a golden-digest
//!   pinned seed → fleet stability guarantee.
//! * [`scenario`] — the scenario suite: generated multi-rate cyclic
//!   executives with operating modes (nominal/degraded/fault-handling)
//!   and declarative per-frame WCET-budget properties, lowered to
//!   `SweepSpec`s and decided against `run_sweep` bounds into a
//!   deterministic schedulability report.
//! * [`mod@bench`] — a plain-`Instant` benchmark harness emitting
//!   `BENCH_<group>.json` machine-readable summaries.
//! * [`oracle`] — the cross-layer differential fuzz oracle behind the
//!   `fuzz_pipeline` binary: random dataflow nodes through
//!   lower → optimize → regalloc → schedule → encode → decode under all
//!   four compiler configurations, cross-checking interpreter vs.
//!   simulator bit-exactly (NaN/±inf included), translation-validator
//!   acceptance, binary round-trips, and WCET-bound domination.
//!
//! Every random artifact in the repository is replayable from a single
//! `u64` seed; failures print the seed and the environment incantation
//! that reproduces them.

#![warn(missing_docs)]

pub mod bench;
pub mod fleet;
pub mod oracle;
pub mod prop;
pub mod rng;
pub mod scenario;
