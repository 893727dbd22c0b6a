//! Workset splitting for scoring model partitionings (paper §5.2):
//! training (30%), validation (30%), testing (40%).

use crate::record::TraceRecord;

/// Splits `records` into (training, validation, testing) worksets by the
/// given fractions of the input order. Fractions must sum to ≤ 1.0; the
/// testing set receives the remainder. Order-preserving and deterministic.
pub fn split_worksets<'a>(
    records: &[&'a TraceRecord],
    train_frac: f64,
    validation_frac: f64,
) -> (Vec<&'a TraceRecord>, Vec<&'a TraceRecord>, Vec<&'a TraceRecord>) {
    assert!(train_frac >= 0.0 && validation_frac >= 0.0);
    assert!(train_frac + validation_frac <= 1.0 + 1e-9);
    let n = records.len();
    let n_train = ((n as f64) * train_frac).round() as usize;
    let n_val = ((n as f64) * validation_frac).round() as usize;
    let n_train = n_train.min(n);
    let n_val = n_val.min(n - n_train);
    let train = records[..n_train].to_vec();
    let val = records[n_train..n_train + n_val].to_vec();
    let test = records[n_train + n_val..].to_vec();
    (train, val, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::Value;

    fn recs(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                proc: 0,
                params: vec![Value::Int(i as i64)],
                queries: vec![],
                batch_ends: Vec::new(),
                aborted: false,
            })
            .collect()
    }

    #[test]
    fn paper_split_30_30_40() {
        let owned = recs(100);
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let (tr, va, te) = split_worksets(&refs, 0.3, 0.3);
        assert_eq!((tr.len(), va.len(), te.len()), (30, 30, 40));
        // Order preserved and disjoint.
        assert_eq!(tr[0].params[0], Value::Int(0));
        assert_eq!(va[0].params[0], Value::Int(30));
        assert_eq!(te[0].params[0], Value::Int(60));
    }

    #[test]
    fn empty_input() {
        let refs: Vec<&TraceRecord> = vec![];
        let (tr, va, te) = split_worksets(&refs, 0.3, 0.3);
        assert!(tr.is_empty() && va.is_empty() && te.is_empty());
    }

    #[test]
    fn tiny_input_never_overflows() {
        let owned = recs(1);
        let refs: Vec<&TraceRecord> = owned.iter().collect();
        let (tr, va, te) = split_worksets(&refs, 0.3, 0.3);
        assert_eq!(tr.len() + va.len() + te.len(), 1);
    }
}
