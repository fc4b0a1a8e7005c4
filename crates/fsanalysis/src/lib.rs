//! Reference-pattern analysis of logical file system traces.
//!
//! This crate reimplements the first analysis program of the paper
//! (Section 5): given a trace, it measures
//!
//! * **system activity** — users, active users per interval, and
//!   throughput per active user (Table IV) — [`activity`];
//! * **access patterns** — sequentiality and whole-file transfers
//!   (Table V), sequential run lengths (Figure 1) — [`sequential`];
//! * **dynamic file sizes** at close (Figure 2) — [`sizes`];
//! * **open durations** (Figure 3) — [`opentime`];
//! * **file lifetimes** — time from creation to deletion or complete
//!   overwrite (Figure 4) — [`lifetime`];
//! * **event-gap bounds** — the intervals between successive trace
//!   events for the same open file, which bound the times when data
//!   transfers actually occurred (Section 3.1) — [`intervals`].
//!
//! Transfers are billed at the next `close` or `seek` for the file,
//! exactly as the paper does; the reconstruction itself lives in
//! [`fstrace::session`].
//!
//! Every analysis is implemented as a streaming [`stream::Analyzer`];
//! the batch `analyze(...)` entry points are thin wrappers, and
//! [`run_analyzers`] computes all of them in one bounded-memory pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod intervals;
pub mod lifetime;
pub mod opentime;
pub mod sequential;
pub mod sizes;
pub mod stream;
pub mod users;

pub use activity::{ActivityAnalysis, ActivityBuilder, ActivityWindow};
pub use intervals::{EventGapAnalysis, EventGapBuilder};
pub use lifetime::{LifetimeAnalysis, LifetimeBuilder, LifetimeEvent};
pub use opentime::{OpenTimeAnalysis, OpenTimeBuilder};
pub use sequential::{
    RunLengthAnalysis, RunLengthBuilder, SequentialityBuilder, SequentialityReport,
};
pub use sizes::{FileSizeAnalysis, FileSizeBuilder};
pub use stream::{run_analyzers, AnalysisStream, AnalysisSuite, Analyzer};
pub use users::{UserActivity, UserAnalysis, UserAnalysisBuilder};
