//! Every `#[non_exhaustive]` config survives `clone()` plus a serde round
//! trip with zero field drift.
//!
//! The non-exhaustive structs are the crate's forward-compatibility
//! surface: adding a knob must never be a breaking change, which also
//! means no knob may silently fall out of `Clone`, `Serialize` or
//! `Deserialize`. Each case round-trips a *non-default* instance — a field
//! dropped by any of the three impls snaps back to its default and fails
//! the equality, so drift cannot hide behind `#[serde(default)]`.

use serde::de::DeserializeOwned;
use serde::Serialize;
use skynet::core::serve::FsyncPolicy;
use skynet::core::{
    EvaluatorConfig, FaultAction, FaultConfig, FaultRule, GuardConfig, InjectionSite,
    LocatorConfig, ObsConfig, PipelineConfig, PreprocessorConfig, ServeConfig, StreamingConfig,
};
use skynet::model::SimDuration;

fn round_trips<T>(cfg: T)
where
    T: Clone + PartialEq + std::fmt::Debug + Serialize + DeserializeOwned,
{
    assert_eq!(cfg.clone(), cfg, "clone must preserve every field");
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let back: T = serde_json::from_str(&json).expect("config deserializes");
    assert_eq!(back, cfg, "serde round trip must preserve every field");
    let again = serde_json::to_string(&back).expect("config re-serializes");
    assert_eq!(
        again, json,
        "re-serialization must be byte-identical (field drift)"
    );
}

#[test]
fn guard_config_round_trips() {
    round_trips(
        GuardConfig::default()
            .with_skew_window(SimDuration::from_mins(7))
            .with_max_future_skew(SimDuration::from_mins(3))
            .with_dead_letter_capacity(99),
    );
}

#[test]
fn preprocessor_config_round_trips() {
    round_trips(
        PreprocessorConfig::default()
            .with_dedup_window(SimDuration::from_mins(9))
            .with_persistence_threshold(5)
            .with_corroboration_window(SimDuration::from_mins(2)),
    );
}

#[test]
fn locator_config_round_trips() {
    round_trips(
        LocatorConfig::default()
            .with_node_timeout(SimDuration::from_mins(11))
            .with_incident_timeout(SimDuration::from_mins(13))
            .with_check_interval(SimDuration::from_mins(2))
            .with_topology_connectivity(false)
            .with_root_quorum(0.61),
    );
}

#[test]
fn evaluator_config_round_trips() {
    round_trips(
        EvaluatorConfig::default()
            .with_severity_threshold(0.83)
            .with_matrix_factor(2.5)
            .with_matrix_min_loss(0.07),
    );
}

#[test]
fn streaming_config_round_trips() {
    round_trips(
        StreamingConfig::default()
            .with_event_capacity(512)
            .with_incident_capacity(33)
            .with_guard(GuardConfig::default().with_dead_letter_capacity(17))
            .with_shed_high_water(0.5)
            .with_max_restarts(9)
            .with_shards(4),
    );
}

/// A config file written before `stats_interval` was removed still loads:
/// the stale key is ignored and every other field keeps its value.
#[test]
fn streaming_config_ignores_the_removed_stats_interval() {
    let cfg = StreamingConfig::default().with_event_capacity(512);
    let json = serde_json::to_string(&cfg).expect("config serializes");
    let old = json.replacen('{', "{\"stats_interval\":64,", 1);
    let back: StreamingConfig = serde_json::from_str(&old).expect("old config deserializes");
    assert_eq!(back, cfg);
}

#[test]
fn obs_config_round_trips() {
    round_trips(
        ObsConfig::default()
            .with_tracing(true)
            .with_trace_capacity(123),
    );
}

#[test]
fn fault_config_round_trips() {
    round_trips(
        FaultConfig::seeded(0xDEC0DE)
            .with_rule(FaultRule::every(
                InjectionSite::WalAppend,
                7,
                FaultAction::Error,
            ))
            .with_rule(FaultRule::probability(
                InjectionSite::SnapshotWrite,
                0.25,
                FaultAction::Latency(3),
            ))
            .with_rule(FaultRule::once(
                InjectionSite::LocateWorker,
                4,
                FaultAction::Panic,
            )),
    );
}

#[test]
fn serve_config_round_trips() {
    round_trips(
        ServeConfig::new("wal/under/test")
            .with_segment_max_bytes(4096)
            .with_retain_segments(2)
            .with_fsync(FsyncPolicy::EveryN(17))
            .with_tenant_queue_capacity(5)
            .with_bind("127.0.0.1:0"),
    );
}

#[test]
fn pipeline_config_round_trips() {
    round_trips(
        PipelineConfig::production()
            .with_streaming(StreamingConfig::default().with_shards(4))
            .with_faults(FaultConfig::seeded(21).with_rule(FaultRule::every(
                InjectionSite::GuardOffer,
                11,
                FaultAction::Error,
            )))
            .with_classifier_min_support(5)
            .with_classifier_max_depth(6),
    );
}
