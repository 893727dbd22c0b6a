//! End-to-end tests of the §4.5 live maintenance loop: epoch-swapped
//! advisors healing from a seeded workload shift.
//!
//! The first test drives the advisor + maintainer pair single-threaded, so
//! every count is exactly pinned: feedback records, the swap point, the
//! published epoch, and per-epoch accuracy. The second runs the real
//! multi-threaded runtime with a mid-run partition-skew flip; there the
//! feedback interleaving is scheduler-dependent, so it pins inequalities
//! (maintenance arm beats the frozen arm on plan quality) plus feedback
//! conservation.

use engine::{
    run_live, run_offline, CatalogResolver, ExecutedQuery, LiveAdvisor, LiveConfig,
    RequestGenerator, RunMetrics, TxnOutcome,
};
use houdini::{train, Houdini, HoudiniConfig, TrainingConfig};
use workloads::{tatp, Bench};

/// Trains TATP predictors from a trace skewed to partitions `[0, hot_hi)`.
fn skewed_predictors(
    parts: u32,
    hot_hi: u32,
    n: usize,
    partitioned: bool,
) -> (engine::Catalog, Vec<houdini::ProcPredictor>) {
    let reg = Bench::Tatp.registry();
    let catalog = reg.catalog();
    let mut gen = tatp::Generator::new(parts, 13).with_hot_partitions(0, hot_hi);
    let wl = engine::collect_trace(&mut Bench::Tatp.database(parts), &reg, &mut gen, n, 4);
    let cfg = TrainingConfig { partitioned };
    let preds = train(&catalog, parts, &wl, &cfg);
    (catalog, preds)
}

/// GetSubscriberData is registry index 3 (procedure letter D): one
/// single-partition read, no aborts — the cleanest fully-deterministic
/// vehicle for the shift.
const GET_SUBSCRIBER: u32 = 3;

#[test]
fn monitor_threshold_fires_end_to_end_with_pinned_counts() {
    let parts = 2;
    // Global models (one per procedure) keep the monitor bookkeeping
    // exactly predictable; trained on partition 0 only, so every
    // partition-1 state is dark.
    let (catalog, preds) = skewed_predictors(parts, 1, 800, false);
    let h = Houdini::new(
        preds,
        catalog.clone(),
        parts,
        HoudiniConfig { maintenance_min_window: 50, ..Default::default() },
    );
    let mut maintainer = LiveAdvisor::maintainer(&h).expect("maintenance is on by default");
    let mut db = Bench::Tatp.database(parts);
    let reg = Bench::Tatp.registry();
    let resolver = CatalogResolver::new(&catalog, parts);
    let ctx =
        engine::PlanContext { catalog: &catalog, num_partitions: parts, random_local_partition: 0 };

    assert_eq!(h.live_epoch(), 0);
    let mut swapped_at = None;
    // 60 shifted requests: subscribers at partition 1 only. Each runs one
    // query + commit = 2 observed transitions; with min_window 50 and 0%
    // coverage, the monitor must fire during the 25th teardown.
    for i in 0..60u64 {
        let s_id = 1 + 2 * (i as i64 % 100); // odd => partition 1
        let req = engine::Request {
            proc: GET_SUBSCRIBER,
            args: vec![common::Value::Int(s_id)],
            origin_node: 0,
        };
        let (plan, mut session) = h.plan_live_reusing(&req, &ctx, None);
        if swapped_at.is_none() {
            assert_eq!(
                plan.lock_set,
                common::PartitionSet::all(parts),
                "request {i}: dark estimate must fall back to lock-all"
            );
        } else {
            assert_eq!(
                plan.lock_set,
                common::PartitionSet::single(1),
                "request {i}: healed model must plan single-partition"
            );
        }
        let out = run_offline(&mut db, &reg, &catalog, GET_SUBSCRIBER, &req.args, true)
            .expect("offline execution");
        assert!(out.committed);
        for q in &out.record.queries {
            use trace::PartitionResolver as _;
            let parts_set = resolver.partitions(GET_SUBSCRIBER, q.query, &q.params);
            let _ = h.on_query_live(
                &mut session,
                &ExecutedQuery {
                    query: q.query,
                    params: q.params.clone(),
                    partitions: parts_set,
                    is_write: catalog.proc(GET_SUBSCRIBER).query(q.query).is_write(),
                },
            );
        }
        let fb = h
            .end_live_reclaim(session, TxnOutcome::Committed)
            .0
            .expect("maintenance feedback at teardown");
        assert_eq!(fb.proc, GET_SUBSCRIBER);
        assert_eq!(fb.path.len(), 1, "one executed query per request");
        maintainer.absorb(fb);
        if swapped_at.is_none() && h.live_epoch() > 0 {
            swapped_at = Some(i);
        }
    }

    // Pinned: the 25th teardown (index 24) filled the 50-transition window
    // at 0% coverage and published epoch 1; nothing re-fired afterwards.
    assert_eq!(swapped_at, Some(24), "swap point is deterministic");
    assert_eq!(h.live_epoch(), 1);
    let report = maintainer.report();
    assert_eq!(report.model_swaps, 1);
    assert_eq!(report.feedback_records, 60);
    // Pinned per-epoch accuracy: 25 dark transactions against epoch 0
    // (50 observed, 0 matched), 35 healed ones against epoch 1 (70/70).
    assert_eq!(report.epoch_accuracy.len(), 2);
    assert_eq!(
        (
            report.epoch_accuracy[0].epoch,
            report.epoch_accuracy[0].observed,
            report.epoch_accuracy[0].matched
        ),
        (0, 50, 0)
    );
    assert_eq!(
        (
            report.epoch_accuracy[1].epoch,
            report.epoch_accuracy[1].observed,
            report.epoch_accuracy[1].matched
        ),
        (1, 70, 70)
    );
    assert_eq!(report.epoch_accuracy[1].accuracy(), Some(1.0), "post-swap accuracy");

    // The frozen configuration has no maintainer at all.
    let frozen = Houdini::new(
        skewed_predictors(parts, 1, 200, false).1,
        catalog,
        parts,
        HoudiniConfig { maintenance: false, ..Default::default() },
    );
    assert!(LiveAdvisor::maintainer(&frozen).is_none());
}

fn drift_run(maintenance: bool) -> RunMetrics {
    const PARTS: u32 = 2;
    const CLIENTS_PER_PARTITION: u32 = 2;
    const REQUESTS: u64 = 400;
    const FLIP_AFTER: u64 = 100;
    let (catalog, preds) = skewed_predictors(PARTS, 1, 1_000, true);
    let h = Houdini::new(
        preds,
        catalog,
        PARTS,
        HoudiniConfig { maintenance, maintenance_min_window: 60, ..Default::default() },
    );
    let db = Bench::Tatp.database(PARTS);
    let reg = Bench::Tatp.registry();
    let cfg = LiveConfig { seed: 23, msg_delay_us: 0, ..Default::default() };
    let make_gen = |client: u64| {
        Box::new(
            tatp::Generator::for_client(PARTS, 23, client)
                .with_hot_partitions(0, 1)
                .with_partition_flip(1, 2, FLIP_AFTER),
        ) as Box<dyn RequestGenerator + Send>
    };
    let (m, _) = run_live(db, reg, h, &make_gen, CLIENTS_PER_PARTITION, REQUESTS, &cfg)
        .expect("drift run must not halt");
    let issued = u64::from(PARTS * CLIENTS_PER_PARTITION) * REQUESTS;
    assert_eq!(m.committed + m.user_aborts, issued, "lost transactions");
    m
}

#[test]
fn live_runtime_heals_from_mid_run_skew_flip() {
    let maint = drift_run(true);
    let frozen = drift_run(false);

    // The frozen advisor never learns: no swaps, no feedback pipeline.
    assert_eq!(frozen.model_swaps, 0);
    assert_eq!(frozen.feedback_records, 0);
    assert_eq!(frozen.feedback_dropped, 0);

    // The maintenance arm swapped at least one model epoch and consumed
    // feedback; channel conservation: everything emitted was either
    // consumed or counted as dropped, and teardowns bound emissions.
    assert!(maint.model_swaps >= 1, "no epoch swap under drift");
    assert!(maint.feedback_records > 0);
    let teardowns = maint.committed + maint.user_aborts + maint.restarts;
    assert!(
        maint.feedback_records + maint.feedback_dropped <= teardowns,
        "more feedback than teardowns: {} + {} > {teardowns}",
        maint.feedback_records,
        maint.feedback_dropped,
    );

    // Healed models plan the shifted traffic single-partition again;
    // frozen models dead-end into lock-all fallbacks forever.
    assert!(
        maint.single_partition > frozen.single_partition,
        "maintenance arm must recover single-partition plans: {} <= {}",
        maint.single_partition,
        frozen.single_partition,
    );
    let maint_op2 = maint.overall_op2_pct().expect("op2 measured");
    let frozen_op2 = frozen.overall_op2_pct().expect("op2 measured");
    assert!(
        maint_op2 > frozen_op2,
        "maintenance arm must beat frozen on OP2 accuracy: {maint_op2:.1} <= {frozen_op2:.1}"
    );
    // And the recovery is visible per epoch: the last epoch's accuracy
    // beats epoch 0's (the drifted trained models).
    let first = maint.epoch_accuracy.first().expect("epoch 0 observed");
    let last = maint.epoch_accuracy.last().expect("swapped epoch observed");
    assert!(last.epoch > first.epoch);
    assert!(
        last.accuracy().unwrap_or(0.0) > first.accuracy().unwrap_or(1.0),
        "accuracy must recover across epochs: {:?} -> {:?}",
        first.accuracy(),
        last.accuracy(),
    );
}
