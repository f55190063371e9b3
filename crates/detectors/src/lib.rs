//! Dynamic race detectors for the BigFoot reproduction.
//!
//! Implements every detector from the paper's evaluation (Fig. 2) over the
//! BFJ interpreter's event stream — FastTrack, RedCard, SlimState,
//! SlimCard, and BigFoot's run time (DynamicBF) — as configurations of one
//! [`Detector`] engine, plus the dynamic precise-checks verifier of §5.
//!
//! See [`Detector`] for the configuration matrix and usage.

pub mod channel;
mod creplay;
mod detector;
mod djit;
mod pipeline;
mod precision;
mod replay;
mod stats;
mod sync;

pub use creplay::{replay_compressed, replay_compressed_report, CompressedReplayReport};
pub use detector::{ArrayEngine, CheckSource, Detector, ProxyTable};
pub use djit::{DjitDetector, DjitState};
pub use pipeline::{
    detect_pipelined, run_pipelined, BatchSink, PipelineConfig, DEFAULT_BATCH_EVENTS,
    DEFAULT_RING_SLOTS,
};
pub use precision::{verify_precise_checks, PrecisionError};
pub use replay::{replay_trace, ReplayConfig, TraceReader, SHARDS};
pub use stats::{CoarseTarget, Race, RaceTarget, Stats};
pub use sync::SyncClocks;
