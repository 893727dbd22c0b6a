//! `storage`: point reads, logged and unlogged updates, insert + delete,
//! and rollback, on a probe table of the layer's own (`Database::new`).
//! Table sizes of the real workloads are constants of the `workloads`
//! crate, so the 1 M-row table here is the one place the working set
//! leaves the CPU caches.

use super::{calls, time_ns, LayerValue, ProbeCtx};
use common::Value;
use std::hint::black_box;
use storage::{Database, Schema, UndoLog};

const SMALL_ROWS: i64 = 10_000;
const LARGE_ROWS: i64 = 1_000_000;

fn table(rows: i64) -> Database {
    let schemas = vec![Schema::new("T", &["ID", "V"], &[0], Some(0))];
    let mut db = Database::new(schemas, 1, &[]);
    let mut undo = UndoLog::disabled();
    for i in 0..rows {
        db.insert(0, 0, vec![Value::Int(i), Value::Int(0)], &mut undo).expect("fresh key");
    }
    db
}

pub fn probe(ctx: &ProbeCtx<'_>) -> Vec<LayerValue> {
    let mut out = Vec::new();
    let mut db = table(SMALL_ROWS);
    let mut i = 0i64;

    let (ns, n) = time_ns(ctx.budget, 1024, || {
        i = (i + 7) % SMALL_ROWS;
        black_box(db.get(0, 0, &[Value::Int(i)]).is_some());
    });
    out.push(("storage.get_ns", ns, calls(n)));

    let mut undo = UndoLog::new();
    let (ns, n) = time_ns(ctx.budget, 1024, || {
        i = (i + 11) % SMALL_ROWS;
        db.update(0, 0, &[Value::Int(i)], |r| r[1] = Value::Int(i), &mut undo).expect("row exists");
        undo.clear();
    });
    out.push(("storage.update_undo_ns", ns, calls(n)));

    let mut no_undo = UndoLog::disabled();
    let (ns, n) = time_ns(ctx.budget, 1024, || {
        i = (i + 11) % SMALL_ROWS;
        db.update(0, 0, &[Value::Int(i)], |r| r[1] = Value::Int(i), &mut no_undo)
            .expect("row exists");
    });
    out.push(("storage.update_noundo_ns", ns, calls(n)));

    let (ns, n) = time_ns(ctx.budget, 512, || {
        let key = Value::Int(SMALL_ROWS + i);
        db.insert(0, 0, vec![key.clone(), Value::Int(0)], &mut undo).expect("fresh key");
        black_box(db.delete(0, 0, &[key], &mut undo).expect("row just inserted"));
        undo.clear();
    });
    out.push(("storage.insert_delete_ns", ns, calls(n)));

    // One logged update, then undone: what an aborting writer pays per row.
    let (ns, n) = time_ns(ctx.budget, 512, || {
        i = (i + 13) % SMALL_ROWS;
        db.update(0, 0, &[Value::Int(i)], |r| r[1] = Value::Int(-1), &mut undo)
            .expect("row exists");
        db.rollback(&mut undo).expect("rollback of a logged update");
    });
    out.push(("storage.rollback_ns", ns, calls(n)));
    drop(db);

    let large = table(LARGE_ROWS);
    // A large odd stride visits the rows in an order no prefetcher follows.
    let (ns, n) = time_ns(ctx.budget, 1024, || {
        i = (i + 611_953) % LARGE_ROWS;
        black_box(large.get(0, 0, &[Value::Int(i)]).is_some());
    });
    out.push(("storage.get_1m_ns", ns, calls(n)));
    out
}
