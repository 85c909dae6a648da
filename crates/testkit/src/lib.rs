//! Machine-generated adversarial coverage for the AWSAD stack.
//!
//! The stack has many independent ways to compute the same
//! [`awsad_core::AdaptiveStep`] stream — direct
//! [`awsad_core::AdaptiveDetector`] stepping, the runtime engine, the
//! wire path through the `awsad-net` event-loop server,
//! [`awsad_serve::ReconnectingClient`] resume, snapshot/restore, the
//! cluster router across a shard kill, cross-session batch stepping
//! and mid-stream recalibration. This crate pins them to each other
//! with a generator + oracle harness instead of hand-picked models and
//! traces:
//!
//! * [`scenario`] — seeded scenario generators: random stable and
//!   marginal LTI plants with controlled spectral radius, random PID
//!   gains, noise bounds, window parameters, and attack schedules.
//!   Every scenario serializes to a one-line **seed string**
//!   (`awsad1:<family>:<seed-hex>[:len=N]`) that replays it exactly.
//! * [`oracle`] — differential oracles that run one scenario through
//!   every detection path and assert bit-identical step streams, plus
//!   deadline-estimator self-checks (precomputed boxes vs the
//!   reference formula, deadline-cache transparency).
//! * [`wirefuzz`] — a structure-aware fuzzer for the wire protocol:
//!   generates valid frames, then mutates them (length-prefix lies,
//!   truncation, bit flips, envelope corruption, hostile allocation
//!   sizes) asserting decode never panics or over-allocates; plus
//!   live-server probes for cross-connection poisoning and torn
//!   frames interleaved across a shard's connections.
//! * [`proxy`] — the frame-aware fault-injection TCP proxy shared by
//!   the server chaos tests and the fuzzer's resume path.
//!
//! The `fuzz` binary drives all of the above in a time-boxed smoke
//! mode and carries a shrinker that minimizes any failing scenario to
//! its seed string:
//!
//! ```text
//! cargo run --release -p awsad-testkit --bin fuzz -- --seconds 30 --seed 5
//! cargo run --release -p awsad-testkit --bin fuzz -- --repro awsad1:registry:00000000deadbeef
//! ```

pub mod oracle;
pub mod proxy;
pub mod scenario;
pub mod wirefuzz;

pub use oracle::{
    check_estimator, check_five_paths, check_local_paths, check_recalibrate_path,
    check_seven_paths, OracleError,
};
pub use proxy::{FaultPlan, FaultProxy, ReplyFault};
pub use scenario::{Family, Scenario, SeedSpec};
