//! Property tests of the incremental streaming loop: for ANY seeded delta
//! sequence — telemetry deltas interleaved with fine-graph churn, with or
//! without a checkpoint/restore in the middle — the incrementally
//! maintained coarse artifacts are byte-for-byte identical to a full
//! batch recompute over the concatenated log. This is the tentpole
//! guarantee that lets the controller trust delta-applied state without
//! re-coarsening history every tick.

use proptest::prelude::*;
use smn_core::bwlogs::{encode_coarse_log, AdaptiveCoarsener};
use smn_core::coarsen::Coarsening;
use smn_core::controller::{ControllerConfig, PlanningRow, SmnController};
use smn_core::stream::{StreamConfig, StreamError, StreamState, TickOutcome};
use smn_datalake::TimeStore;
use smn_depgraph::coarse::CoarseDepGraph;
use smn_depgraph::delta::GraphDelta;
use smn_depgraph::fine::{Component, DependencyKind, FineDepGraph, Layer};
use smn_obs::audit::AuditRecord;
use smn_telemetry::delta::TelemetryDelta;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::Statistic;
use smn_telemetry::time::{Ts, DAY, EPOCH_SECS, HOUR};

fn comp(name: &str, team: &str) -> Component {
    Component {
        name: name.into(),
        service: name.into(),
        team: team.into(),
        layer: Layer::Application,
    }
}

fn base_fine() -> FineDepGraph {
    let mut g = FineDepGraph::new();
    let a = g.add_component(comp("web-1", "app"));
    let b = g.add_component(comp("db-1", "storage"));
    g.add_dependency(a, b, DependencyKind::Call);
    g
}

fn controller() -> SmnController {
    let mut ctl = SmnController::new(CoarseDepGraph::new(), ControllerConfig::default());
    ctl.set_obs(smn_obs::Obs::enabled(smn_obs::clock::SimClock::new()));
    ctl
}

/// Every statistic on both coarseners, so a tie or signed zero misplaced
/// in a sorted sample buffer shows in the `Min`/`Max`/percentile bits.
fn all_stats_config() -> StreamConfig {
    let all = vec![
        Statistic::Mean,
        Statistic::Min,
        Statistic::Max,
        Statistic::P50,
        Statistic::P95,
        Statistic::P99,
    ];
    let base = StreamConfig::default();
    let adaptive = AdaptiveCoarsener { stats: all.clone(), ..base.adaptive.clone() };
    StreamConfig { stats: all, adaptive, ..base }
}

/// Strategy: per-tick telemetry deltas. Each tick is one epoch (all its
/// records share the epoch timestamp, so concatenation in tick order is a
/// valid time-ordered log) carrying 0..5 records over a 4-node WAN.
fn delta_stream_strategy(ticks: usize) -> impl Strategy<Value = Vec<TelemetryDelta>> {
    let tick_records = proptest::collection::vec((0u32..4, 0u32..4, 0.5f64..2000.0), 0..5);
    proptest::collection::vec(tick_records, ticks..(ticks + 1)).prop_map(|per_tick| {
        per_tick
            .into_iter()
            .enumerate()
            .map(|(t, rows)| {
                let ts = Ts(t as u64 * EPOCH_SECS);
                let records: Vec<BandwidthRecord> = rows
                    .into_iter()
                    .map(|(src, dst, gbps)| BandwidthRecord { ts, src, dst, gbps })
                    .collect();
                TelemetryDelta::new(t as u64, records)
            })
            .collect()
    })
}

/// Bandwidth values the boundary strategy draws from: exact ties come
/// from repeated draws, and both zeros exercise the sorted-insert order of
/// `-0.0 < 0.0` and the adaptive coarsener's `mean > 0` guard.
const GBPS_POOL: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 5.0, 100.0, 750.0, 2000.0];

/// Epochs the boundary strategy's clock advances before a record: mostly
/// small steps, plus an hour, half a day, and a full day.
const STRIDES: [u64; 9] = [0, 0, 1, 1, 7, HOUR / EPOCH_SECS, 60, 150, DAY / EPOCH_SECS];

/// Strategy: multi-epoch ticks whose timestamps stride across hour and
/// day boundaries. Each record advances a clock shared by all ticks by a
/// stride from [`STRIDES`], so the concatenation stays time-ordered while
/// ten ticks span many hour windows and several day windows, and pairs
/// see enough samples to flip volatility class. Values come from
/// [`GBPS_POOL`] over a 3-node WAN.
fn boundary_stream_strategy(ticks: usize) -> impl Strategy<Value = Vec<TelemetryDelta>> {
    let record = (0usize..STRIDES.len(), 0u32..3, 0u32..3, 0usize..GBPS_POOL.len());
    let tick_records = proptest::collection::vec(record, 0..7);
    proptest::collection::vec(tick_records, ticks).prop_map(|per_tick| {
        let mut epoch = 0u64;
        per_tick
            .into_iter()
            .enumerate()
            .map(|(t, rows)| {
                let records: Vec<BandwidthRecord> = rows
                    .into_iter()
                    .map(|(stride, src, dst, gbps)| {
                        epoch += STRIDES.get(stride).copied().unwrap_or(0);
                        let gbps = GBPS_POOL.get(gbps).copied().unwrap_or(0.0);
                        BandwidthRecord { ts: Ts(epoch * EPOCH_SECS), src, dst, gbps }
                    })
                    .collect();
                TelemetryDelta::new(t as u64, records)
            })
            .collect()
    })
}

/// Strategy shaped like periodbench's set-up: one bulk first delta of
/// 1 to 10 hours of epochs, then `ticks` single-epoch deltas, plus a
/// checkpoint split anywhere in the stream. The bulk delta seals many
/// hour windows at once. The stream starts up to 12 hours before a day
/// boundary, so a stable pair's whole history sometimes fits in one day
/// window (the adaptive log reuses its classification summary for that
/// row) and sometimes crosses into the next day (it cannot). Each epoch
/// carries 0..4 records over a 3-node WAN with values from [`GBPS_POOL`],
/// so pairs also flip class.
fn bulk_then_ticks_strategy(ticks: usize) -> impl Strategy<Value = (Vec<TelemetryDelta>, usize)> {
    let hour = (HOUR / EPOCH_SECS) as usize;
    let epoch = proptest::collection::vec((0u32..3, 0u32..3, 0usize..GBPS_POOL.len()), 0..4);
    let epochs = proptest::collection::vec(epoch, (hour + ticks)..(10 * hour + ticks + 1));
    let lead = 0..12 * HOUR / EPOCH_SECS;
    (epochs, lead, 1..ticks + 2).prop_map(move |(epochs, lead, split)| {
        let start = DAY / EPOCH_SECS - lead;
        let bulk_epochs = epochs.len() - ticks;
        let mut deltas = vec![TelemetryDelta::new(0, Vec::new())];
        for (e, rows) in epochs.into_iter().enumerate() {
            let ts = Ts((start + e as u64) * EPOCH_SECS);
            let records = rows.into_iter().map(|(src, dst, gbps)| BandwidthRecord {
                ts,
                src,
                dst,
                gbps: GBPS_POOL.get(gbps).copied().unwrap_or(0.0),
            });
            if e < bulk_epochs {
                deltas[0].records.extend(records);
            } else {
                deltas.push(TelemetryDelta::new((e + 1 - bulk_epochs) as u64, records.collect()));
            }
        }
        (deltas, split)
    })
}

/// Strategy: fine-graph churn interleaved with the telemetry stream. Each
/// entry `(tick_choice, team, wire_to_base)` adds one uniquely named
/// component on a pseudo-random tick, wired into the existing graph
/// either from `web-1` (a same-tick dependency onto the new component) or
/// onto `db-1`.
fn churn_strategy(ticks: usize) -> impl Strategy<Value = Vec<GraphDelta>> {
    let event = (0..ticks, 0usize..3, 0u8..2);
    proptest::collection::vec(event, 0..6).prop_map(|events| {
        let teams = ["app", "storage", "platform"];
        let mut deltas: Vec<GraphDelta> = Vec::new();
        for (k, (tick, team, to_base)) in events.into_iter().enumerate() {
            let to_base = to_base == 1;
            let tick = tick as u64;
            let name = format!("svc-{tick}-{k}");
            if !deltas.iter().any(|d| d.tick == tick) {
                deltas.push(GraphDelta::new(tick));
            }
            let d = deltas.iter_mut().find(|d| d.tick == tick).expect("just ensured");
            d.push_component(comp(&name, teams[team]));
            if to_base {
                d.push_dependency(name, "db-1", DependencyKind::Call);
            } else {
                d.push_dependency("web-1", name, DependencyKind::Call);
            }
        }
        deltas.sort_by_key(|d| d.tick);
        deltas
    })
}

/// Each tick reports the pairs its adaptive apply walked: the delta's
/// distinct pairs, sorted.
fn check_tick_pairs(
    outcomes: &[TickOutcome],
    telemetry: &[TelemetryDelta],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(outcomes.len(), telemetry.len());
    for (o, d) in outcomes.iter().zip(telemetry) {
        prop_assert_eq!(&o.pairs, &d.pairs());
    }
    Ok(())
}

/// Every periodic reconciliation passes and the final incremental
/// artifacts equal a batch recompute over the concatenated log, byte for
/// byte.
fn check_incremental_equals_batch(
    base: &StreamConfig,
    telemetry: &[TelemetryDelta],
    churn: &[GraphDelta],
    reconcile_every: u64,
) -> Result<(), TestCaseError> {
    let mut ctl = controller();
    let cfg = StreamConfig { reconcile_every, ..base.clone() };
    let mut state = StreamState::new(cfg, base_fine());
    let outcomes = ctl.stream_run(&mut state, telemetry, churn).expect("no tick may fail");
    prop_assert_eq!(outcomes.len(), telemetry.len());
    check_tick_pairs(&outcomes, telemetry)?;
    let verdict = ctl.stream_reconcile(&mut state).expect("final reconcile");
    prop_assert_eq!(&verdict.hash, &state.fingerprint());

    // Independently recompute the batch artifacts from the concatenated
    // deltas and compare bytes.
    let full: Vec<BandwidthRecord> =
        telemetry.iter().flat_map(|d| d.records.iter().copied()).collect();
    prop_assert_eq!(verdict.lake_records, full.len());
    let batch_time = encode_coarse_log(&state.config.time_coarsener().coarsen(&full));
    prop_assert_eq!(state.time_log().encode(), batch_time);
    let batch_adaptive = encode_coarse_log(&state.config.adaptive.coarsen(&full));
    prop_assert_eq!(state.adaptive_log().encode(), batch_adaptive);
    prop_assert_eq!(
        state.adaptive_log().volatile_pairs(),
        state.config.adaptive.volatile_pairs(&full)
    );
    let batch_cdg = CoarseDepGraph::from_fine(&state.fine).canonical_bytes();
    prop_assert_eq!(state.cdg.canonical_bytes(), batch_cdg);
    // The controller adopted the proven CDG on reconcile.
    prop_assert_eq!(ctl.cdg.canonical_bytes(), state.cdg.canonical_bytes());
    Ok(())
}

/// Serializing the `StreamState` after `split` ticks, restoring it into a
/// fresh controller, and continuing the stream yields the same
/// fingerprint as a session that never stopped.
fn check_checkpoint_restore(
    base: &StreamConfig,
    telemetry: &[TelemetryDelta],
    churn: &[GraphDelta],
    split: usize,
) -> Result<(), TestCaseError> {
    let cfg = StreamConfig { reconcile_every: 3, ..base.clone() };

    // Session A: uninterrupted.
    let mut ctl_a = controller();
    let mut state_a = StreamState::new(cfg.clone(), base_fine());
    ctl_a.stream_run(&mut state_a, telemetry, churn).expect("uninterrupted run");
    ctl_a.stream_reconcile(&mut state_a).expect("uninterrupted reconcile");

    // Session B: checkpoint after `split` ticks, restore from the
    // serialized checkpoint, continue with the remaining deltas.
    let mut ctl_b = controller();
    let mut live = StreamState::new(cfg, base_fine());
    ctl_b.stream_run(&mut live, &telemetry[..split], churn).expect("pre-checkpoint run");
    let checkpoint = serde_json::to_string(&live).expect("checkpoint serializes");
    drop(live);
    let mut restored = StreamState::restore(&checkpoint).expect("checkpoint restores");
    ctl_b.stream_run(&mut restored, &telemetry[split..], churn).expect("post-restore run");
    let verdict = ctl_b.stream_reconcile(&mut restored).expect("post-restore reconcile");

    prop_assert_eq!(state_a.fingerprint(), restored.fingerprint());
    prop_assert_eq!(&verdict.hash, &restored.fingerprint());
    prop_assert_eq!(state_a.time_log().encode(), restored.time_log().encode());
    prop_assert_eq!(state_a.adaptive_log().encode(), restored.adaptive_log().encode());
    prop_assert_eq!(state_a.cdg.canonical_bytes(), restored.cdg.canonical_bytes());
    Ok(())
}

/// Appended record counts sum to the lake total, and the final row count
/// matches the batch row count (no cell is ever lost or double-created by
/// dirty tracking).
fn check_apply_stats(
    base: &StreamConfig,
    telemetry: &[TelemetryDelta],
) -> Result<(), TestCaseError> {
    let mut ctl = controller();
    let cfg = StreamConfig { reconcile_every: 0, ..base.clone() };
    let mut state = StreamState::new(cfg, base_fine());
    let outcomes = ctl.stream_run(&mut state, telemetry, &[]).expect("run");
    check_tick_pairs(&outcomes, telemetry)?;
    let appended: usize = outcomes.iter().map(|o| o.time.appended).sum();
    let total: usize = telemetry.iter().map(TelemetryDelta::len).sum();
    prop_assert_eq!(appended, total);
    let full: Vec<BandwidthRecord> =
        telemetry.iter().flat_map(|d| d.records.iter().copied()).collect();
    let batch_rows = state.config.time_coarsener().coarsen(&full).len();
    prop_assert_eq!(state.time_log().rows(), batch_rows);
    prop_assert_eq!(state.adaptive_log().rows(), state.config.adaptive.coarsen(&full).len());
    for o in &outcomes {
        prop_assert!(o.time.recomputed_rows <= o.time.total_rows);
        prop_assert!(o.time.dirty_cells <= o.time.appended.max(1));
        prop_assert!(o.adaptive.recomputed_rows <= o.adaptive.total_rows);
    }
    Ok(())
}

/// The evidence of the last audit record of `action`.
fn last_audit(ctl: &SmnController, action: &str) -> Vec<(String, String)> {
    let audit = ctl.obs().audit_jsonl();
    let records = audit.lines().rev().filter_map(|l| AuditRecord::from_json_line(l).ok());
    records.into_iter().find(|r| r.action == action).map(|r| r.evidence).unwrap_or_default()
}

/// The value of `key` in the last `action` audit record, if any.
fn audited(ctl: &SmnController, action: &str, key: &str) -> Option<String> {
    last_audit(ctl, action).into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// What the last reconcile audit says it proved: `(proved_from,
/// walked_records)`.
fn proof_scope(ctl: &SmnController) -> (Option<String>, Option<String>) {
    (audited(ctl, "reconcile", "proved_from"), audited(ctl, "reconcile", "walked_records"))
}

/// The scope the last reconcile must have proved, given the window start
/// it proved from (`None` for a full proof): the lake from that start, or
/// all of it.
fn expected_scope(ctl: &SmnController, from: Option<u64>) -> (Option<String>, Option<String>) {
    let lake = ctl.clds().bandwidth.read();
    let walked = from.map_or(lake.len(), |start| lake.since(Ts(start)).len());
    (Some(from.unwrap_or(0).to_string()), Some(walked.to_string()))
}

/// The newest window a proof covered: its start and end, and the lake's
/// record count at the proof.
type ProvenWindow = (u64, u64, usize);

/// The newest window of the lake `ctl` just proved, if it holds a record.
fn proven_window(ctl: &SmnController, window: u64) -> Option<ProvenWindow> {
    let lake = ctl.clds().bandwidth.read();
    let start = lake.latest_ts()?.0 / window * window;
    Some((start, start + window, lake.len()))
}

/// Where a proof must start after its predecessor proved `prev` (`None`
/// for a full proof): at the end of the predecessor's newest window when
/// that window is sealed now (a record lies at or after its end) and the
/// lake holds no new record before its end; otherwise at that window.
fn expected_start(ctl: &SmnController, prev: Option<ProvenWindow>) -> Option<u64> {
    let (start, end, proven_len) = prev?;
    let lake = ctl.clds().bandwidth.read();
    let sealed = lake.latest_ts().is_some_and(|t| t.0 >= end);
    let quiet = lake.len() - lake.since(Ts(end)).len() == proven_len;
    Some(if sealed && quiet { end } else { start })
}

/// Every reconcile of a session, periodic or final, has the verdict and
/// hash of a full proof of a restored copy of its state against the same
/// lake. Each one proves from where [`expected_start`] says (a full proof
/// first) and walks the lake's records from there; the restored copy
/// walks the whole lake.
fn check_sealed_window_proofs(
    base: &StreamConfig,
    telemetry: &[TelemetryDelta],
    churn: &[GraphDelta],
    reconcile_every: u64,
) -> Result<(), TestCaseError> {
    let mut ctl = controller();
    let cfg = StreamConfig { reconcile_every, ..base.clone() };
    let window = cfg.window_secs;
    let mut state = StreamState::new(cfg, base_fine());
    let mut prev = None;
    let mut check = |ctl: &mut SmnController, state: &StreamState, hash: &str| {
        prop_assert_eq!(proof_scope(ctl), expected_scope(ctl, expected_start(ctl, prev)));
        let lake_records = ctl.clds().bandwidth.read().len();
        prop_assert_eq!(audited(ctl, "reconcile", "lake_records"), Some(lake_records.to_string()));
        let checkpoint = serde_json::to_string(state).expect("checkpoint serializes");
        let mut restored = StreamState::restore(&checkpoint).expect("checkpoint restores");
        let full = ctl.stream_reconcile(&mut restored).expect("a full proof passes too");
        prop_assert_eq!(full.hash.as_str(), hash);
        prop_assert_eq!(proof_scope(ctl), expected_scope(ctl, None));
        prev = proven_window(ctl, window);
        Ok(())
    };
    for td in telemetry {
        let gd = churn.iter().find(|g| g.tick == td.tick);
        let outcome = ctl.stream_tick(&mut state, td, gd).expect("no tick may fail");
        if let Some(verdict) = outcome.reconcile {
            check(&mut ctl, &state, &verdict.hash)?;
        }
    }
    let verdict = ctl.stream_reconcile(&mut state).expect("final reconcile");
    check(&mut ctl, &state, &verdict.hash)?;
    prop_assert_eq!(&verdict.hash, &state.fingerprint());
    Ok(())
}

/// Strategy: ticks of 0..6 records over a 4-node WAN, each record
/// advancing a shared clock by a stride from [`STRIDES`] (across hour and
/// day windows), so pairs join whenever they are first drawn. A tick is
/// steady (every value 40.0) or wild (values swing between 1.0 and 900.0,
/// with signed zeros), so pairs flip class as their histories grow. After
/// each tick comes one event: none (0, 4, 5), a `retain` that keeps the
/// whole lake (1), a clone of the state (2), or a checkpoint and restore
/// (3).
fn resume_stream_strategy(ticks: usize) -> impl Strategy<Value = Vec<(TelemetryDelta, u8)>> {
    const WILD: [f64; 4] = [1.0, 900.0, 0.0, -0.0];
    let record = (0usize..STRIDES.len(), 0u32..4, 0u32..4, 0usize..WILD.len());
    let tick = (proptest::collection::vec(record, 0..6), 0u8..2, 0u8..6);
    proptest::collection::vec(tick, ticks).prop_map(|per_tick| {
        let mut epoch = 0u64;
        per_tick
            .into_iter()
            .enumerate()
            .map(|(t, (rows, wild, event))| {
                let records = rows
                    .into_iter()
                    .map(|(stride, src, dst, v)| {
                        epoch += STRIDES.get(stride).copied().unwrap_or(0);
                        let gbps = if wild == 1 { WILD[v] } else { 40.0 };
                        BandwidthRecord { ts: Ts(epoch * EPOCH_SECS), src, dst, gbps }
                    })
                    .collect();
                (TelemetryDelta::new(t as u64, records), event)
            })
            .collect()
    })
}

/// What a session's last proof left for the adaptive oracle to resume
/// from: the lake's record count then, and its pairs with their classes.
struct AdaptiveMark {
    lake_records: usize,
    pairs: Vec<((u32, u32), bool)>,
}

/// The adaptive log's pairs, ascending, each with whether it is volatile.
fn adaptive_classes(state: &StreamState) -> Vec<((u32, u32), bool)> {
    let volatile = state.adaptive_log().volatile_pairs();
    let mut pairs: Vec<(u32, u32)> =
        state.adaptive_log().coarse_log().iter().map(|r| (r.src, r.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.into_iter().map(|p| (p, volatile.contains(&p))).collect()
}

/// Check the reconcile of `state` that just returned `hash`, given the
/// adaptive mark its last proof left (`None` when a `retain` or a restore
/// dropped it): the adaptive oracle resumed from that proof's lake
/// position unless a pair it held has changed class since, and walked the
/// lake from there; a full proof of a restored copy has the same hash.
/// Then record this proof's mark.
fn check_resumed_proof(
    ctl: &mut SmnController,
    state: &StreamState,
    hash: &str,
    mark: &mut Option<AdaptiveMark>,
) -> Result<(), TestCaseError> {
    let now = adaptive_classes(state);
    let flipped = mark.as_ref().is_some_and(|m| m.pairs.iter().any(|p| !now.contains(p)));
    let from = mark.as_ref().filter(|_| !flipped).map_or(0, |m| m.lake_records);
    let lake_records = ctl.clds().bandwidth.read().len();
    prop_assert_eq!(audited(ctl, "reconcile", "adaptive_from"), Some(from.to_string()));
    let walked = (lake_records - from).to_string();
    prop_assert_eq!(audited(ctl, "reconcile", "adaptive_walked"), Some(walked));
    let checkpoint = serde_json::to_string(state).expect("checkpoint serializes");
    let mut restored = StreamState::restore(&checkpoint).expect("checkpoint restores");
    let full = ctl.stream_reconcile(&mut restored).expect("a full proof passes too");
    prop_assert_eq!(full.hash.as_str(), hash);
    prop_assert_eq!(audited(ctl, "reconcile", "adaptive_from"), Some("0".to_string()));
    *mark = Some(AdaptiveMark { lake_records, pairs: now });
    Ok(())
}

/// Every reconcile of a session whose pairs flip class and join late, and
/// whose lake is retained and state cloned or restored between ticks,
/// passes [`check_resumed_proof`].
fn check_resumed_adaptive_proofs(
    base: &StreamConfig,
    ticks: &[(TelemetryDelta, u8)],
    reconcile_every: u64,
) -> Result<(), TestCaseError> {
    let mut ctl = controller();
    let cfg = StreamConfig { reconcile_every, ..base.clone() };
    let mut state = StreamState::new(cfg, base_fine());
    let mut mark = None;
    for (td, event) in ticks {
        let outcome = ctl.stream_tick(&mut state, td, None).expect("no tick may fail");
        if let Some(verdict) = outcome.reconcile {
            check_resumed_proof(&mut ctl, &state, &verdict.hash, &mut mark)?;
        }
        match event {
            1 => {
                ctl.clds().bandwidth.write().retain(|_| true);
                mark = None;
            }
            2 => state = state.clone(),
            3 => {
                let checkpoint = serde_json::to_string(&state).expect("checkpoint serializes");
                state = StreamState::restore(&checkpoint).expect("checkpoint restores");
                mark = None;
            }
            _ => {}
        }
    }
    let verdict = ctl.stream_reconcile(&mut state).expect("final reconcile");
    check_resumed_proof(&mut ctl, &state, &verdict.hash, &mut mark)?;
    prop_assert_eq!(&verdict.hash, &state.fingerprint());
    Ok(())
}

/// A session of 36 single-epoch ticks (three hours) over three pairs,
/// proven twice after its last tick: the second proof walks only the
/// open hour 2, and any later one would start there too.
fn proven_session() -> (SmnController, StreamState) {
    let mut ctl = controller();
    let cfg = StreamConfig { reconcile_every: 0, ..StreamConfig::default() };
    let mut state = StreamState::new(cfg, base_fine());
    let deltas: Vec<TelemetryDelta> = (0..36u32)
        .map(|e| {
            let ts = Ts(u64::from(e) * EPOCH_SECS);
            let records = [(0, 1), (1, 2), (2, 0)]
                .map(|(src, dst)| BandwidthRecord { ts, src, dst, gbps: f64::from(e % 5 + src) })
                .to_vec();
            TelemetryDelta::new(u64::from(e), records)
        })
        .collect();
    ctl.stream_run(&mut state, &deltas, &[]).expect("the stream applies");
    ctl.stream_reconcile(&mut state).expect("an honest session reconciles");
    ctl.stream_reconcile(&mut state).expect("and again, from its mark");
    assert_eq!(proof_scope(&ctl), (Some((2 * HOUR).to_string()), Some("36".to_string())));
    (ctl, state)
}

/// Assert that a reconcile failed with a divergence in the uniform log.
fn assert_uniform_divergence(result: Result<impl std::fmt::Debug, StreamError>) {
    match result {
        Err(StreamError::Divergence { artifact, .. }) => assert_eq!(artifact, "coarse-bwlog"),
        other => panic!("expected a uniform-log divergence, got {other:?}"),
    }
}

#[test]
fn retaining_the_lake_forces_a_full_proof() {
    let (mut ctl, mut state) = proven_session();
    let kept = ctl.clds().bandwidth.write().retain(|_| true);
    assert_eq!(kept, 0);
    ctl.stream_reconcile(&mut state).expect("the same records reconcile");
    assert_eq!(proof_scope(&ctl), expected_scope(&ctl, None));

    // Drop one record from a proven window: only a full proof sees it.
    let (mut ctl, mut state) = proven_session();
    ctl.clds().bandwidth.write().retain(|r| (r.ts, r.src) != (Ts(0), 0));
    assert_uniform_divergence(ctl.stream_reconcile(&mut state));
    let diff = audited(&ctl, "reconcile-divergence", "diff").unwrap_or_default();
    assert!(diff.starts_with("row 0:"), "{diff}");
}

#[test]
fn a_cloned_or_replaced_lake_forces_a_full_proof() {
    let (mut ctl, mut state) = proven_session();
    let copy = ctl.clds().bandwidth.read().clone();
    *ctl.clds().bandwidth.write() = copy;
    ctl.stream_reconcile(&mut state).expect("a cloned lake reconciles");
    assert_eq!(proof_scope(&ctl), expected_scope(&ctl, None));

    // A replacement that differs in a proven window diverges.
    let (mut ctl, mut state) = proven_session();
    let mut replaced = TimeStore::default();
    replaced.extend(ctl.clds().bandwidth.read().all().iter().map(|&r| {
        let planted = (r.ts, r.src) == (Ts(EPOCH_SECS), 1);
        BandwidthRecord { gbps: if planted { r.gbps + 1.0 } else { r.gbps }, ..r }
    }));
    *ctl.clds().bandwidth.write() = replaced;
    assert_uniform_divergence(ctl.stream_reconcile(&mut state));
}

/// Each `lake/ingest-bw` phase's `copies` field in `ctl`'s trace, in order.
fn ingest_copies(ctl: &SmnController) -> Vec<u64> {
    ctl.obs()
        .trace_jsonl()
        .lines()
        .filter(|l| l.contains("\"name\":\"lake/ingest-bw\""))
        .filter_map(|l| l.split("\"copies\":").nth(1)?.split([',', '}']).next()?.parse().ok())
        .collect()
}

/// A planning window shares the lake's records. Held across a tick, it
/// still reads its plan-time rows, and that tick's ingest copies the lake
/// exactly once; dropped before a tick, it costs no copy.
#[test]
fn a_held_planning_window_is_a_snapshot_that_costs_one_copy() {
    let (mut ctl, mut state) = proven_session();
    let tick = |e: u32| {
        let ts = Ts(u64::from(e) * EPOCH_SECS);
        let records = [(0, 1), (1, 2), (2, 0)]
            .map(|(src, dst)| BandwidthRecord { ts, src, dst, gbps: f64::from(e) })
            .to_vec();
        TelemetryDelta::new(u64::from(e), records)
    };
    let plan = |ctl: &SmnController| {
        let (window, feedback) = ctl.planning_bandwidth(Ts(2 * HOUR), Ts(3 * HOUR + EPOCH_SECS));
        assert!(feedback.is_empty(), "{feedback:?}");
        window.expect("a reliable lake reads")
    };
    let held = plan(&ctl);
    let rows: Vec<PlanningRow> = held.records.iter().collect();
    assert_eq!(rows.len(), 36, "twelve epochs of three pairs");
    let before = ctl.clds().bandwidth.read().copies();
    ctl.stream_tick(&mut state, &tick(36), None).expect("the tick applies");
    assert_eq!(ctl.clds().bandwidth.read().copies(), before + 1, "the held window costs one copy");
    assert_eq!(held.records.iter().collect::<Vec<_>>(), rows, "and keeps its plan-time rows");
    let fresh = plan(&ctl);
    assert_eq!(fresh.records.len(), rows.len() + 3, "the lake has the tick's epoch");
    drop(fresh);
    ctl.stream_tick(&mut state, &tick(37), None).expect("the tick applies");
    assert_eq!(ctl.clds().bandwidth.read().copies(), before + 1, "the lake owns its copy");
    drop(held);
    drop(plan(&ctl));
    ctl.stream_tick(&mut state, &tick(38), None).expect("the tick applies");
    assert_eq!(ctl.clds().bandwidth.read().copies(), before + 1, "a dropped window costs none");
    assert_eq!(ingest_copies(&ctl).iter().rev().take(3).collect::<Vec<_>>(), [&0, &0, &1]);
}

#[test]
fn a_restored_session_starts_with_a_full_proof() {
    let (mut ctl, state) = proven_session();
    let checkpoint = serde_json::to_string(&state).expect("checkpoint serializes");
    let mut restored = StreamState::restore(&checkpoint).expect("checkpoint restores");
    ctl.stream_reconcile(&mut restored).expect("a restored session reconciles");
    assert_eq!(proof_scope(&ctl), expected_scope(&ctl, None));
    ctl.stream_reconcile(&mut restored).expect("and again, from its own mark");
    assert_eq!(proof_scope(&ctl), expected_scope(&ctl, Some(2 * HOUR)));

    // A checkpoint whose first proven row was changed diverges: the first
    // value of the first sealed block.
    let first = state.time_log().coarse_log()[0].values[0];
    let values = r#""stride":2,"values":["#;
    let (head, tail) = checkpoint.split_once(values).expect("the log holds a sealed block");
    let (value, rest) = tail.split_once(',').expect("the block holds two values");
    assert_eq!(value.parse::<f64>(), Ok(first));
    let forged = format!("{head}{values}{},{rest}", first + 1.0);
    let mut restored = StreamState::restore(&forged).expect("the forged checkpoint restores");
    assert_uniform_divergence(ctl.stream_reconcile(&mut restored));
}

proptest! {
    /// For any delta sequence and churn interleaving, incremental equals
    /// batch.
    #[test]
    fn incremental_equals_batch_for_any_delta_sequence(
        telemetry in delta_stream_strategy(10),
        churn in churn_strategy(10),
        reconcile_every in 0u64..5,
    ) {
        check_incremental_equals_batch(&StreamConfig::default(), &telemetry, &churn, reconcile_every)?;
    }

    /// The same, with ticks that cross hour and day windows, values that
    /// tie or are signed zeros, and every statistic kept.
    #[test]
    fn incremental_equals_batch_across_window_boundaries(
        telemetry in boundary_stream_strategy(10),
        churn in churn_strategy(10),
        reconcile_every in 0u64..5,
    ) {
        check_incremental_equals_batch(&all_stats_config(), &telemetry, &churn, reconcile_every)?;
    }

    /// Checkpoint/restore mid-stream is invisible at any split point.
    #[test]
    fn checkpoint_restore_is_byte_identical_at_any_split(
        telemetry in delta_stream_strategy(8),
        churn in churn_strategy(8),
        split in 1usize..8,
    ) {
        check_checkpoint_restore(&StreamConfig::default(), &telemetry, &churn, split)?;
    }

    /// The same, with ticks that cross hour and day windows and every
    /// statistic kept.
    #[test]
    fn checkpoint_restore_across_window_boundaries(
        telemetry in boundary_stream_strategy(8),
        churn in churn_strategy(8),
        split in 1usize..8,
    ) {
        check_checkpoint_restore(&all_stats_config(), &telemetry, &churn, split)?;
    }

    /// Delta-apply bookkeeping is conservative.
    #[test]
    fn apply_stats_account_for_every_record_and_row(
        telemetry in delta_stream_strategy(12),
    ) {
        check_apply_stats(&StreamConfig::default(), &telemetry)?;
    }

    /// A multi-hour bulk delta, then single-epoch ticks: incremental
    /// equals batch and the bookkeeping holds, across the sealing of many
    /// windows at once and day windows that do and do not hold a pair's
    /// whole history.
    #[test]
    fn bulk_load_then_epoch_ticks_equal_batch(
        (telemetry, _split) in bulk_then_ticks_strategy(12),
        churn in churn_strategy(13),
        reconcile_every in 0u64..5,
    ) {
        check_incremental_equals_batch(&all_stats_config(), &telemetry, &churn, reconcile_every)?;
        check_apply_stats(&all_stats_config(), &telemetry)?;
    }

    /// The same stream shape with a checkpoint and restore anywhere.
    #[test]
    fn bulk_load_then_epoch_ticks_restore_at_any_split(
        (telemetry, split) in bulk_then_ticks_strategy(12),
        churn in churn_strategy(13),
    ) {
        check_checkpoint_restore(&all_stats_config(), &telemetry, &churn, split)?;
    }

    /// The same, with ticks that cross hour and day windows and every
    /// statistic kept.
    #[test]
    fn apply_stats_across_window_boundaries(
        telemetry in boundary_stream_strategy(12),
    ) {
        check_apply_stats(&all_stats_config(), &telemetry)?;
    }

    /// Every reconcile of a stream whose ticks cross hour and day
    /// windows, at any cadence, proves from its predecessor's mark and
    /// has a full proof's verdict and hash.
    #[test]
    fn sealed_window_proofs_match_full_proofs_across_window_boundaries(
        telemetry in boundary_stream_strategy(12),
        churn in churn_strategy(12),
        reconcile_every in 1u64..5,
    ) {
        check_sealed_window_proofs(&all_stats_config(), &telemetry, &churn, reconcile_every)?;
    }

    /// Every reconcile resumes the adaptive oracle from its last proof
    /// unless a held pair changed class or the mark is gone, and has a
    /// full proof's verdict and hash: through class flips, late pairs,
    /// lake retains, clones and restores, at any cadence, under adaptive
    /// windows that nest (a day of hours) or do not (5 h and 2 h, 2 h and
    /// 3 h), at any threshold, Mean-only and with every statistic.
    #[test]
    fn resumed_adaptive_proofs_match_full_proofs(
        ticks in resume_stream_strategy(14),
        reconcile_every in 1u64..4,
        windows in 0usize..3,
        cv_threshold in 0.1f64..1.2,
        all_stats in 0u8..2,
    ) {
        let (stable_window, volatile_window) =
            [(DAY, HOUR), (5 * HOUR, 2 * HOUR), (2 * HOUR, 3 * HOUR)][windows];
        let base = if all_stats == 1 { all_stats_config() } else { StreamConfig::default() };
        let adaptive =
            AdaptiveCoarsener { cv_threshold, stable_window, volatile_window, ..base.adaptive.clone() };
        check_resumed_adaptive_proofs(&StreamConfig { adaptive, ..base }, &ticks, reconcile_every)?;
    }

    /// The same after a multi-hour bulk load, whose first reconcile may
    /// already follow many sealed windows.
    #[test]
    fn sealed_window_proofs_match_full_proofs_after_a_bulk_load(
        (telemetry, _split) in bulk_then_ticks_strategy(12),
        churn in churn_strategy(13),
        reconcile_every in 1u64..5,
    ) {
        check_sealed_window_proofs(&StreamConfig::default(), &telemetry, &churn, reconcile_every)?;
    }
}
