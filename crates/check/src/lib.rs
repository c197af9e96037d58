//! **tt-check** — coherence model checking for the Tempest/Typhoon
//! reproduction.
//!
//! Simulators are only as trustworthy as the invariants they are checked
//! against. This crate turns the repo's two machines into a
//! model-checking harness with three layers:
//!
//! 1. an **invariant engine** ([`invariants`]) — observers attached to
//!    [`TyphoonMachine::run_observed`] that assert, at every event
//!    boundary: single-writer/multiple-reader over the 32-byte block
//!    tags, agreement between each node's Stache tags and the home
//!    directory state, word-level agreement of all readable copies of a
//!    block, the request/response virtual-network send discipline
//!    (deadlock-freedom of the waits-for order), and an event budget
//!    that turns livelock into a reported failure;
//! 2. a **schedule fuzzer** ([`mod@fuzz`]) — seed-generated cases run under
//!    perturbations of the machine's *legal* nondeterminism (same-cycle
//!    tie-breaking, network latency jitter, compute coalescing, direct
//!    execution on/off, lossy-network schedules, routed topologies).
//!    Everything derives from one `u64` seed through
//!    [`tt_base::DetRng`], so `tt-check replay --seed S` reproduces a
//!    failure bit-exactly, and a greedy shrinker reduces a failing case
//!    to a minimal shape and schedule;
//! 3. a **differential checker** (also in [`mod@fuzz`]) — the same requests
//!    run on `tt-typhoon` (user-level protocols) and `tt-dirnnb` (the
//!    hardware `Dir_N NB` baseline); final shared-memory images must
//!    match each other *and* the generator's own happens-before
//!    prediction, word for word.
//!
//! Layers 2 and 3 are one engine with three entry points — [`fuzz()`],
//! [`run_seed`] (also replay) and [`shrink`] — reporting through one
//! [`Failure`], [`CaseResult`] and [`FuzzReport`]. A check [`Family`]
//! supplies only its [`Shape`] (seed draw, display, shrink candidates),
//! its legs and their scripts, and its predicted final image:
//! [`litmus`] (contended blocks, Typhoon/Stache against DirNNB) and
//! [`kvlitmus`] (KV put/get races, Typhoon/Stache and the write-update
//! server against DirNNB). [`FuzzOptions`] forces faults, a fault seed,
//! a topology, or the planted bug.
//!
//! [`scenarios`] carries known-broken protocols (promoted from the old
//! `tt-typhoon` failure-injection tests) that the harness must catch:
//! a protocol that never invalidates, a protocol that loses resumes,
//! and a planted single-line Stache bug ([`scenarios::SkipInvalidate`])
//! that skips the invalidation an `INV` message demands while still
//! acknowledging it.
//!
//! The `tt-check` binary (in `tt-bench`) drives fuzzing runs and writes
//! a JSON report; see the repository README for a quick start.
//!
//! [`TyphoonMachine::run_observed`]: tt_typhoon::TyphoonMachine::run_observed

pub mod fuzz;
pub mod invariants;
pub mod kvlitmus;
pub mod litmus;
pub mod scenarios;

pub use fuzz::{
    fuzz, run_seed, shrink, stache_factory, CaseResult, Failure, Family, FuzzOptions, FuzzReport,
    PerturbConfig, Shape,
};
pub use invariants::InvariantChecker;
pub use kvlitmus::{KvLitmus, KvLitmusConfig};
pub use litmus::{classic_suite, run_classic, ClassicLitmus, Litmus, LitmusConfig};
