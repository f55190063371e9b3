//! Dynamic race detectors for the BigFoot reproduction.
//!
//! Implements every detector from the paper's evaluation (Fig. 2) over the
//! BFJ event stream — FastTrack, RedCard, SlimState,
//! SlimCard, and BigFoot's run time (DynamicBF) — as configurations of one
//! engine, plus the independent DJIT+ reference detector and the dynamic
//! precise-checks verifier of §5.
//!
//! The engine is written once: an annotator that runs the clocks and
//! footprints in trace order, and shard state that owns the shadow
//! memory. Two transports connect them. [`Detector`] applies each check
//! inline, the moment its event arrives; [`replay_trace`] and
//! [`replay_compressed`] queue the checks per shard, detect the shards in
//! parallel and merge the races back into trace order — with the same
//! report either way.

pub mod channel;
mod creplay;
mod detector;
mod djit;
mod engine;
mod pipeline;
mod precision;
mod replay;
mod stats;
mod sync;

pub use creplay::{replay_compressed, replay_compressed_report, CompressedReplayReport};
pub use detector::Detector;
pub use djit::{DjitDetector, DjitState};
pub use engine::{ArrayEngine, CheckSource, ProxyTable};
pub use pipeline::{
    detect_pipelined, run_pipelined, BatchSink, PipelineConfig, DEFAULT_BATCH_EVENTS,
    DEFAULT_RING_SLOTS,
};
pub use precision::{verify_precise_checks, PrecisionError};
pub use replay::{replay_trace, ReplayConfig, TraceReader, SHARDS};
pub use stats::{CoarseTarget, Race, RaceTarget, Stats};
pub use sync::SyncClocks;
