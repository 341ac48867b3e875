#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Structured protocol-event tracing for the Shasta / SMP-Shasta
//! reproduction.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The protocol engine emits a stream of [`Event`]s — inline-check misses,
//! message sends and receives, downgrade progress, poll-point drains, line
//! locks, stall wake-ups, and execution-time slices — into a [`Recorder`].
//! The recorder passes each event once, as it is recorded, through a few
//! aggregators that hold what `shasta-stats`' `RunStats` does not, and then
//! into a per-processor ring that keeps every event for the exporters. The aggregators are whether the time slices tile each
//! processor's clock ([`Fig4Agg`]: idle, overlap, span), the engine's sends
//! classified by placement ([`MsgAgg`]), and the sharing profiler below.
//! The figure counters themselves have one producer: the engine folds each
//! miss, downgrade and slice into `RunStats` at the line that emits the
//! event, recording or not. Messages alone are counted in two *layers* —
//! the engine's sends here, the transport's own `MsgStats` — and
//! [`EventLog::crosscheck`] demands the two agree exactly.
//!
//! The **sharing profiler** ([`profile::ProfileAgg`]) keeps per-block
//! sharing histories classified into patterns (read-mostly, migratory,
//! producer–consumer, false-shared, private), rolled up to `malloc` site
//! labels, with a granularity advisor that recommends per-allocation
//! block-size hints ([`profile::ProfileAgg::advise`]). Its per-block
//! downgrade fields are also Figure 8's direction split and resolutions.
//!
//! Exporters:
//!
//! * [`EventLog::render_tail`] prints the protocol facts as text, one
//!   `[{t}cy P{p}] {name}: {detail}` line each, in time order: the trail
//!   attached to a checker counterexample.
//! * [`chrome::to_chrome_json`] renders an [`EventLog`] in the Chrome
//!   `trace_event` JSON format, which opens in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev) as a per-processor timeline.
//! * [`profile::ProfileAgg::advise`] emits one granularity recommendation
//!   per allocation site, with evidence.
//! * [`critpath::analyze`] extracts the **critical path** by walking back
//!   from the run's end along the two causal edges the engine records: the
//!   send stamp each delivery carries ([`Recorder::record_recv`]) and the
//!   [`EventKind::Woken`] that names who set a stall's resume time. Its
//!   attributed compute / protocol / wire / queueing / sync segments tile
//!   `[0, elapsed_cycles)` exactly (zero-tolerance accounting), rendered
//!   by `shasta_stats::critical_path_report`.
//!
//! A disabled recorder costs the engine one branch per event. This crate
//! is dependency-light (only `shasta-stats`, for the counter and category
//! types the events carry); an enabled one allocates on the record path
//! only when a ring opens its next 16 KiB chunk or the sharing profiler its
//! next chunk of block records.
//!
//! See `docs/OBSERVABILITY.md` for the event schema, the ring design, and
//! a worked example that captures the Figure 2(b) downgrade race.

pub mod chrome;
pub mod critpath;
mod event;
mod fig4;
pub mod hints;
pub mod metrics;
pub mod profile;
mod recorder;
mod rederive;
mod text;

pub use critpath::{analyze, CritPath, PathCat, Segment};
pub use event::{DowngradeAction, Event, EventKind, Stamped};
pub use fig4::Fig4Agg;
pub use hints::{hints_from_reports, HintFile, SiteHint};
pub use metrics::{Counter, Gauge, Histogram, HistogramHandle, Registry};
pub use profile::{ProfileAgg, Recommendation, SharingPattern, SiteReport, SpaceMap};
pub use recorder::{EventLog, ProcEvents, Recorder};
pub use rederive::MsgAgg;
