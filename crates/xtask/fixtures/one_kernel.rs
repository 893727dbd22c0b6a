// Fixture: a driver that applies the transaction-step rules itself.

fn drive(fp: &mut Footprint, undo: &UndoLog, plan: &TxnPlan) -> bool {
    let clean = fp.check_batch(def, n, &batch, plan, &mut targets).is_ok();
    // A comment naming fp.releasable(finished) is not code.
    for p in fp.releasable(finished, plan.lock_set, kept).iter() {
        fp.early_released.insert(p);
    }
    let reserved = plan.lock_set.difference(fp.early_released.difference(wrote));
    let _ = reserved;
    clean && undo.can_rollback()
}

#[cfg(test)]
mod tests {
    fn rollback_ok(undo: &UndoLog) -> bool {
        undo.can_rollback()
    }
}
