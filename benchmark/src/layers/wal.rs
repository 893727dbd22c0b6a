//! `wal`: record encoding, the buffered append, the write + fsync behind a
//! group commit, the recovery scan, and snapshot write and load — all on
//! the checkout's own file system.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use crate::stats::median;
use crate::workload::ScratchDir;
use common::Value;
use std::hint::black_box;
use std::time::Instant;
use wal::{LogRecord, LogSet};

/// Appends per device flush in the flush probe: a typical commit group.
const GROUP: usize = 32;
const REPEATS: usize = 3;

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut out = Vec::new();
    // The shape of the workloads' commonest logged call, TATP UpdateLocation.
    let record = LogRecord::Local {
        txn_id: 1 << 20,
        proc: 5,
        args: vec![Value::Str("000000000000123".into()), Value::Int(123_456)],
    };

    let mut buf = Vec::with_capacity(256);
    let (ns, n) = time_ns(ctx.budget, 1024, || {
        buf.clear();
        record.encode_into(&mut buf);
        black_box(buf.len());
    });
    out.push(("wal.encode_ns", ns, calls(n)));
    out.push(("wal.bytes_per_record", buf.len() as f64, "1 record".into()));

    let dir = ScratchDir::create(ctx.scratch.join(format!("wal-probe-{}", std::process::id())));
    let logs = LogSet::open(dir.path(), 1, 0).expect("open probe log");
    let deadline = Instant::now() + ctx.budget * 2;
    let (mut append_ns, mut flush_us) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        let t0 = Instant::now();
        for _ in 0..GROUP {
            logs.append(0, &record);
        }
        let t1 = Instant::now();
        logs.flush_all();
        let t2 = Instant::now();
        append_ns.push((t1 - t0).as_nanos() as f64 / GROUP as f64);
        flush_us.push((t2 - t1).as_secs_f64() * 1e6);
    }
    let groups = flush_us.len();
    out.push((
        "wal.append_ns",
        median(&append_ns).expect("one group"),
        calls((groups * GROUP) as u64),
    ));
    out.push((
        "wal.flush_disk_us",
        median(&flush_us).expect("one group"),
        format!("{groups} flushes"),
    ));
    drop(logs);

    let scan_us: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            let state = wal::scan(dir.path(), 1).expect("scan probe log");
            t0.elapsed().as_secs_f64() * 1e6 / state.log_records_scanned.max(1) as f64
        })
        .collect();
    out.push((
        "wal.scan_us_per_record",
        median(&scan_us).expect("scans"),
        format!("{REPEATS} scans of {} records", groups * GROUP),
    ));

    // Snapshot of the workload's own partition 0, written and read back in
    // a directory that holds nothing else, so the scan is the snapshot load.
    let snap_dir =
        ScratchDir::create(ctx.scratch.join(format!("snap-probe-{}", std::process::id())));
    let shard = ctx.w.bench.database(ctx.w.parts).into_shards().swap_remove(0);
    let tables = shard.snapshot_rows();
    let rows: usize = tables.iter().map(Vec::len).sum();
    let (mut write_ms, mut load_ms) = (Vec::new(), Vec::new());
    for gen in 1..=REPEATS as u64 {
        let t0 = Instant::now();
        wal::write_snapshot(snap_dir.path(), 0, gen, &tables).expect("write snapshot");
        wal::write_marker(snap_dir.path(), gen).expect("write snapshot marker");
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let state = wal::scan(snap_dir.path(), 1).expect("scan snapshot dir");
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(state.snapshot_gen, Some(gen), "scan must load the snapshot just written");
    }
    let behind = format!("{REPEATS} snapshots of {rows} rows");
    out.push(("wal.snapshot_ms", median(&write_ms).expect("snapshots"), behind.clone()));
    out.push(("wal.recover_snapshot_ms", median(&load_ms).expect("snapshots"), behind));
    out
}
