//! Machine-generated adversarial coverage for the AWSAD stack.
//!
//! The stack has many independent ways to compute the same
//! [`awsad_core::AdaptiveStep`] stream — direct
//! [`awsad_core::AdaptiveDetector`] stepping, the runtime engine with
//! and without its deadline cache, snapshot/restore, the wire path
//! through the `awsad-net` event-loop server, an in-place resume by
//! the [`awsad_cluster::ClusterClient`] over a one-member ring, the
//! cluster router across a shard kill, and cross-session batch
//! stepping, each with mid-stream recalibration where the scenario
//! has one. This crate pins them to each other with a generator +
//! oracle harness instead of hand-picked models and traces:
//!
//! * [`scenario`] — seeded scenario generators: random stable and
//!   marginal LTI plants with controlled spectral radius, random PID
//!   gains, noise bounds, window parameters, and attack schedules.
//!   Every scenario serializes to a one-line **seed string**
//!   (`awsad1:<family>:<seed-hex>[:len=N]`) that replays it exactly.
//! * [`oracle`] — one differential oracle, [`check_paths`], that runs
//!   a chunk of scenarios through every detection path each supports
//!   and asserts bit-identical step streams, plus deadline-estimator
//!   self-checks (precomputed boxes vs the reference formula,
//!   deadline-cache transparency), and reports the paths it ran.
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
//! mode and carries a shrinker that minimizes any failing chunk to its
//! seed strings; `--repro` replays a chunk (comma-separated seed
//! strings) through the same [`check_paths`] and prints its report:
//!
//! ```text
//! cargo run --release -p awsad-testkit --bin fuzz -- --seconds 30 --seed 5
//! cargo run --release -p awsad-testkit --bin fuzz -- --repro awsad1:registry:00000000deadbeef
//! ```

pub mod oracle;
pub mod proxy;
pub mod scenario;
pub mod wirefuzz;

pub use oracle::{check_paths, OracleError, PathsReport};
pub use proxy::{FaultPlan, FaultProxy, ReplyFault};
pub use scenario::{repro_command, Family, Scenario, SeedSpec};
