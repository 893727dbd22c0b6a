//! Trained-predictor persistence.
//!
//! The paper's deployment (Fig. 6) generates models off-line and provides
//! them to the Houdini instance on every node. This module serializes the
//! complete trained state — model sets (global, or partitioned with the
//! routing feature and its values), parameter mappings, and the
//! abort-safety metadata — so training can run once and ship everywhere.
//!
//! A bundle is written with `wal`'s binary codec, and this module alone
//! owns its layout:
//!
//! ```text
//! magic u64 | version u32 | payload | fnv1a(payload) u64
//! payload = num_partitions u32 | count u32 | predictor*
//! ```
//!
//! `f64`s are stored as their bits, and the two hash-keyed collections
//! (the mapping entries and the abort-reachable signatures) in sorted
//! order, so equal predictors give equal bytes. Loading verifies the
//! checksum, then decodes every model through [`MarkovModel::from_parts`],
//! which refuses a model any later lookup would panic on.

use crate::feature::{Feature, FeatureCategory};
use crate::modelset::ModelSet;
use crate::train::ProcPredictor;
use common::{Error, PartitionSet, Result};
use mapping::{ParamSource, ProcMapping, QueryParamMapping};
use markov::ptable::PartitionProbs;
use markov::{Edge, MarkovModel, ProbTable, QueryKind, Vertex, VertexKey};
use std::io::{BufRead, Write};
use std::sync::Arc;
use wal::codec::{fnv1a, CodecError, Reader, Writer};

/// "HOUDINI\0", read as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"HOUDINI\0");
const VERSION: u32 = 1;
/// Magic plus version: where the checksummed payload starts.
const HEADER: usize = 12;

type Decoded<T> = std::result::Result<T, CodecError>;

fn bundle_error(reason: impl std::fmt::Display) -> Error {
    Error::Other(format!("predictor bundle: {reason}"))
}

/// Writes trained predictors as a checksummed binary bundle into `w`.
pub fn save_predictors<W: Write>(
    predictors: &[ProcPredictor],
    num_partitions: u32,
    mut w: W,
) -> Result<()> {
    let mut out = Writer::new();
    out.put_u64(MAGIC);
    out.put_u32(VERSION);
    out.put_u32(num_partitions);
    out.put_u32(predictors.len() as u32);
    for p in predictors {
        put_predictor(&mut out, p);
    }
    let sum = fnv1a(&out.bytes()[HEADER..]);
    out.put_u64(sum);
    w.write_all(out.bytes()).map_err(bundle_error)
}

/// Reads trained predictors back. Rejects bundles trained for a different
/// cluster size (models must be regenerated when the partitioning scheme
/// changes, §3.1), torn or corrupt bundles, and bundles whose models are
/// malformed, which would otherwise panic on the first request they route.
pub fn load_predictors<R: BufRead>(
    mut r: R,
    expected_partitions: u32,
) -> Result<Vec<ProcPredictor>> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(bundle_error)?;
    let (num_partitions, predictors) = decode(&bytes).map_err(|e| bundle_error(e.0))?;
    if num_partitions != expected_partitions {
        return Err(Error::Other(format!(
            "predictors were trained for {num_partitions} partitions, cluster has \
             {expected_partitions}; retrain from the trace (§3.1)"
        )));
    }
    Ok(predictors)
}

fn decode(bytes: &[u8]) -> Decoded<(u32, Vec<ProcPredictor>)> {
    let mut r = Reader::new(bytes);
    if r.get_u64()? != MAGIC {
        return Err(CodecError("not a predictor bundle".into()));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(CodecError(format!("version {version}, this build reads {VERSION}")));
    }
    let Some(body) = bytes.len().checked_sub(HEADER + 8) else {
        return Err(CodecError("truncated".into()));
    };
    let (payload, sum) = bytes[HEADER..].split_at(body);
    if Reader::new(sum).get_u64()? != fnv1a(payload) {
        return Err(CodecError("checksum mismatch".into()));
    }
    let mut r = Reader::new(payload);
    let num_partitions = r.get_u32()?;
    let predictors = (0..get_count(&mut r)?)
        .map(|i| {
            get_predictor(&mut r, num_partitions)
                .map_err(|e| CodecError(format!("predictor {i}: {}", e.0)))
        })
        .collect::<Decoded<Vec<_>>>()?;
    if r.remaining() != 0 {
        return Err(CodecError(format!("{} bytes past the last predictor", r.remaining())));
    }
    Ok((num_partitions, predictors))
}

fn put_f64(w: &mut Writer, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64(r: &mut Reader<'_>) -> Decoded<f64> {
    Ok(f64::from_bits(r.get_u64()?))
}

fn get_bool(r: &mut Reader<'_>) -> Decoded<bool> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(CodecError(format!("flag byte {b}"))),
    }
}

/// An item count. Every item takes at least one byte, so a count past the
/// bytes left is corruption, refused before anything is allocated for it.
fn get_count(r: &mut Reader<'_>) -> Decoded<usize> {
    let n = r.get_u32()? as usize;
    if n > r.remaining() {
        return Err(CodecError(format!("count {n} past the {} bytes left", r.remaining())));
    }
    Ok(n)
}

/// A count-prefixed sequence.
fn get_vec<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    (0..get_count(r)?).map(|_| item(r)).collect()
}

fn put_predictor(w: &mut Writer, p: &ProcPredictor) {
    match &p.models {
        ModelSet::Global { model } => {
            w.put_u8(0);
            put_model(w, model);
        }
        ModelSet::Partitioned { feature, routes, models, num_partitions } => {
            w.put_u8(1);
            w.put_u8(feature.category as u8);
            w.put_u32(feature.param as u32);
            w.put_u32(routes.len() as u32);
            for route in routes {
                match route {
                    None => w.put_u8(0),
                    Some(v) => {
                        w.put_u8(1);
                        put_f64(w, *v);
                    }
                }
            }
            w.put_u32(models.len() as u32);
            for m in models {
                put_model(w, m);
            }
            w.put_u32(*num_partitions);
        }
    }
    let entries = p.mapping.entries();
    w.put_u32(entries.len() as u32);
    for ((query, qparam), m) in entries {
        w.put_u32(query);
        w.put_u32(qparam as u32);
        let (tag, k) = match m.source {
            ParamSource::Scalar(k) => (0, k),
            ParamSource::ArrayElement(k) => (1, k),
        };
        w.put_u8(tag);
        w.put_u32(k as u32);
        put_f64(w, m.coefficient);
    }
    w.put_u8(u8::from(p.disabled));
    put_f64(w, p.abort_rate);
    w.put_u32(p.saw_abort.len() as u32);
    for &saw in &p.saw_abort {
        w.put_u8(u8::from(saw));
    }
    w.put_u8(u8::from(p.can_abort));
    let mut signatures: Vec<_> = p.unsafe_signatures.iter().copied().collect();
    signatures.sort_unstable();
    w.put_u32(signatures.len() as u32);
    for (query, counter) in signatures {
        w.put_u32(query);
        w.put_u32(counter.into());
    }
}

/// Decodes one predictor and checks the shape every later `select`/`model`
/// call relies on: one model per route plus the fallback, routing hashed
/// against the bundle's cluster size, and one abort flag per model.
fn get_predictor(r: &mut Reader<'_>, num_partitions: u32) -> Decoded<ProcPredictor> {
    let models = match r.get_u8()? {
        0 => ModelSet::Global { model: Arc::new(get_model(r, num_partitions)?) },
        1 => {
            // Written as `category as u8`: its index in `ALL`, which
            // lists the categories in declaration order.
            let tag = r.get_u8()?;
            let category = *FeatureCategory::ALL
                .get(usize::from(tag))
                .ok_or_else(|| CodecError(format!("feature category {tag}")))?;
            let feature = Feature { category, param: r.get_u32()? as usize };
            let routes = get_vec(r, |r| match r.get_u8()? {
                0 => Ok(None),
                1 => Ok(Some(get_f64(r)?)),
                t => Err(CodecError(format!("route tag {t}"))),
            })?;
            let models = get_vec(r, |r| Ok(Arc::new(get_model(r, num_partitions)?)))?;
            let n = r.get_u32()?;
            if models.len() != routes.len() + 1 {
                return Err(CodecError(format!(
                    "{} models for {} routes plus the fallback",
                    models.len(),
                    routes.len()
                )));
            }
            if n != num_partitions {
                return Err(CodecError(format!(
                    "routes hashed for {n} partitions, bundle has {num_partitions}"
                )));
            }
            ModelSet::Partitioned { feature, routes, models, num_partitions }
        }
        t => return Err(CodecError(format!("model set tag {t}"))),
    };
    let entries = get_vec(r, |r| {
        let (query, qparam) = (r.get_u32()?, r.get_u32()? as usize);
        let source = match (r.get_u8()?, r.get_u32()? as usize) {
            (0, k) => ParamSource::Scalar(k),
            (1, k) => ParamSource::ArrayElement(k),
            (t, _) => return Err(CodecError(format!("parameter source tag {t}"))),
        };
        Ok((query, qparam, QueryParamMapping { source, coefficient: get_f64(r)? }))
    })?;
    let mut mapping = ProcMapping::empty();
    for (query, qparam, m) in entries {
        mapping.insert(query, qparam, m);
    }
    let disabled = get_bool(r)?;
    let abort_rate = get_f64(r)?;
    let saw_abort = get_vec(r, get_bool)?;
    if saw_abort.len() != models.len() {
        return Err(CodecError(format!(
            "{} abort flags for {} models",
            saw_abort.len(),
            models.len()
        )));
    }
    let can_abort = get_bool(r)?;
    let unsafe_signatures = get_vec(r, |r| {
        let query = r.get_u32()?;
        let counter = r.get_u32()?;
        let counter = u16::try_from(counter)
            .map_err(|_| CodecError(format!("signature counter {counter}")))?;
        Ok((query, counter))
    })?
    .into_iter()
    .collect();
    Ok(ProcPredictor {
        models,
        mapping,
        disabled,
        abort_rate,
        saw_abort,
        can_abort,
        unsafe_signatures,
        plans: Default::default(),
    })
}

fn put_model(w: &mut Writer, m: &MarkovModel) {
    w.put_u32(m.proc);
    w.put_u32(m.num_partitions);
    w.put_u32(m.begin());
    w.put_u32(m.commit());
    w.put_u32(m.abort());
    w.put_u32(m.len() as u32);
    for v in m.vertices() {
        match v.key.kind {
            QueryKind::Begin => w.put_u8(0),
            QueryKind::Commit => w.put_u8(1),
            QueryKind::Abort => w.put_u8(2),
            QueryKind::Query(q) => {
                w.put_u8(3);
                w.put_u32(q);
            }
        }
        w.put_u32(v.key.counter.into());
        w.put_u64(v.key.partitions.0);
        w.put_u64(v.key.previous.0);
        w.put_bytes(v.name.as_bytes());
        w.put_u8(u8::from(v.is_write));
        w.put_u32(v.edges.len() as u32);
        for e in &v.edges {
            w.put_u32(e.to);
            w.put_u64(e.count);
            put_f64(w, e.prob);
            w.put_u64(e.live);
        }
        w.put_u64(v.hits);
        put_f64(w, v.table.single_partition);
        put_f64(w, v.table.abort);
        w.put_u32(v.table.partitions.len() as u32);
        for pp in &v.table.partitions {
            put_f64(w, pp.read);
            put_f64(w, pp.write);
            put_f64(w, pp.finish);
        }
    }
}

fn get_model(r: &mut Reader<'_>, num_partitions: u32) -> Decoded<MarkovModel> {
    let proc = r.get_u32()?;
    let n = r.get_u32()?;
    if n != num_partitions {
        return Err(CodecError(format!(
            "model trained for {n} partitions, bundle has {num_partitions}"
        )));
    }
    let (begin, commit, abort) = (r.get_u32()?, r.get_u32()?, r.get_u32()?);
    let vertices = get_vec(r, get_vertex)?;
    MarkovModel::from_parts(proc, n, vertices, begin, commit, abort)
        .map_err(|e| CodecError(e.to_string()))
}

fn get_vertex(r: &mut Reader<'_>) -> Decoded<Vertex> {
    let kind = match r.get_u8()? {
        0 => QueryKind::Begin,
        1 => QueryKind::Commit,
        2 => QueryKind::Abort,
        3 => QueryKind::Query(r.get_u32()?),
        t => return Err(CodecError(format!("vertex kind tag {t}"))),
    };
    let counter = r.get_u32()?;
    let counter =
        u16::try_from(counter).map_err(|_| CodecError(format!("vertex counter {counter}")))?;
    let key = VertexKey {
        kind,
        counter,
        partitions: PartitionSet(r.get_u64()?),
        previous: PartitionSet(r.get_u64()?),
    };
    let name = std::str::from_utf8(r.get_bytes()?)
        .map_err(|e| CodecError(format!("vertex name: {e}")))?
        .to_string();
    Ok(Vertex {
        key,
        name,
        is_write: get_bool(r)?,
        edges: get_vec(r, |r| {
            Ok(Edge {
                to: r.get_u32()?,
                count: r.get_u64()?,
                prob: get_f64(r)?,
                live: r.get_u64()?,
            })
        })?,
        hits: r.get_u64()?,
        table: ProbTable {
            single_partition: get_f64(r)?,
            abort: get_f64(r)?,
            partitions: get_vec(r, |r| {
                Ok(PartitionProbs { read: get_f64(r)?, write: get_f64(r)?, finish: get_f64(r)? })
            })?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainingConfig};
    use crate::{evaluate_accuracy, Houdini, HoudiniConfig};
    use trace::{TraceRecord, Workload};
    use workloads::Bench;

    fn fixture(parts: u32, n: usize) -> (engine::Catalog, Vec<TraceRecord>) {
        let reg = Bench::Tpcc.registry();
        let mut gen = Bench::Tpcc.generator(parts, 17);
        let wl = engine::collect_trace(&mut Bench::Tpcc.database(parts), &reg, &mut gen, n, 8);
        (reg.catalog(), wl.records)
    }

    fn saved(preds: &[ProcPredictor], parts: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        save_predictors(preds, parts, &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let parts = 4;
        let (catalog, records) = fixture(parts, 1000);
        let (train_recs, test_recs) = records.split_at(500);
        let wl = Workload { records: train_recs.to_vec() };
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());

        let buf = saved(&preds, parts);
        let loaded = load_predictors(&buf[..], parts).unwrap();
        assert_eq!(loaded.len(), preds.len());
        assert_eq!(saved(&loaded, parts), buf, "save -> load -> save gives the same bytes");

        // Accuracy of the loaded predictors matches the originals exactly.
        let accuracy = |preds| {
            let h = Houdini::new(preds, catalog.clone(), parts, HoudiniConfig::default());
            evaluate_accuracy(&h, test_recs)
        };
        assert_eq!(accuracy(loaded), accuracy(preds));
    }

    #[test]
    fn wrong_cluster_size_rejected() {
        let parts = 2;
        let (catalog, records) = fixture(parts, 200);
        let wl = Workload { records };
        let preds = train(&catalog, parts, &wl, &TrainingConfig::default());
        let buf = saved(&preds, parts);
        assert!(load_predictors(&buf[..], 8).is_err());
    }

    #[test]
    fn malformed_bundles_rejected() {
        let parts = 2;
        let (catalog, records) = fixture(parts, 200);
        let mut preds = train(&catalog, parts, &Workload { records }, &TrainingConfig::default());
        // A well-formed one-route split of predictor 0, built by hand.
        let base = preds[0].models.model(0).clone();
        preds[0].models = ModelSet::Partitioned {
            feature: Feature { category: FeatureCategory::HashValue, param: 0 },
            routes: vec![Some(0.0)],
            models: vec![base.clone().into(), base.into()],
            num_partitions: parts,
        };
        preds[0].saw_abort = vec![false, false];
        let buf = saved(&preds, parts);
        let loaded = load_predictors(&buf[..], parts).expect("the hand-built split is well formed");
        assert_eq!(saved(&loaded, parts), buf, "a partitioned set round-trips byte for byte");

        // Each edit of the saved predictor breaks one invariant; the
        // loader names it.
        fn model(p: &mut ProcPredictor) -> &mut MarkovModel {
            Arc::make_mut(p.models.model_arc_mut(0))
        }
        type Edit = fn(&mut ProcPredictor);
        let edits: [(Edit, &str); 7] = [
            (
                |p| {
                    if let ModelSet::Partitioned { models, .. } = &mut p.models {
                        models.clear();
                    }
                },
                "0 models for 1 routes",
            ),
            (
                |p| {
                    if let ModelSet::Partitioned { routes, .. } = &mut p.models {
                        routes.push(Some(1.0));
                    }
                },
                "2 models for 2 routes",
            ),
            (
                |p| {
                    if let ModelSet::Partitioned { num_partitions, .. } = &mut p.models {
                        *num_partitions = 8;
                    }
                },
                "routes hashed for 8 partitions",
            ),
            (
                |p| {
                    p.saw_abort.pop();
                },
                "1 abort flags for 2 models",
            ),
            (
                |p| {
                    let m = model(p);
                    let begin = m.begin();
                    m.vertex_mut(begin).edges.push(Edge {
                        to: 1_000_000,
                        count: 1,
                        prob: 1.0,
                        live: 0,
                    });
                },
                "edge to 1000000",
            ),
            (|p| model(p).vertex_mut(0).table.partitions.truncate(1), "1 table entries"),
            (|p| model(p).num_partitions = 8, "model trained for 8 partitions"),
        ];
        for (i, (edit, reason)) in edits.iter().enumerate() {
            let mut preds = preds.clone();
            edit(&mut preds[0]);
            let err = load_predictors(&saved(&preds, parts)[..], parts)
                .err()
                .unwrap_or_else(|| panic!("edit {i} must be refused"))
                .to_string();
            assert!(err.contains("predictor 0") && err.contains(reason), "edit {i}: {err}");
        }
    }

    /// A one-procedure bundle (TATP's first procedure, trained on no
    /// records) in the JSON format this module wrote before it used `wal`'s
    /// codec.
    const JSON_BUNDLE: &str = r#"{"num_partitions":2,"predictors":[{"models":{"Global":{"model":{"proc":0,"num_partitions":2,"vertices":[{"key":{"kind":"Begin","counter":0,"partitions":0,"previous":0},"name":"begin","is_write":false,"edges":[],"hits":0,"table":{"single_partition":0.0,"abort":0.0,"partitions":[{"read":0.0,"write":0.0,"finish":0.0},{"read":0.0,"write":0.0,"finish":0.0}]}},{"key":{"kind":"Commit","counter":0,"partitions":0,"previous":0},"name":"commit","is_write":false,"edges":[],"hits":0,"table":{"single_partition":0.0,"abort":0.0,"partitions":[{"read":0.0,"write":0.0,"finish":0.0},{"read":0.0,"write":0.0,"finish":0.0}]}},{"key":{"kind":"Abort","counter":0,"partitions":0,"previous":0},"name":"abort","is_write":false,"edges":[],"hits":0,"table":{"single_partition":0.0,"abort":0.0,"partitions":[{"read":0.0,"write":0.0,"finish":0.0},{"read":0.0,"write":0.0,"finish":0.0}]}}],"begin":0,"commit":1,"abort":2}}},"mapping":[],"disabled":true,"abort_rate":0.0,"saw_abort":[false],"can_abort":true,"unsafe_signatures":[]}]}"#;

    #[test]
    fn torn_corrupt_and_foreign_bundles_fail_softly() {
        let parts = 2;
        let reg = Bench::Tatp.registry();
        let mut gen = Bench::Tatp.generator(parts, 17);
        let wl = engine::collect_trace(&mut Bench::Tatp.database(parts), &reg, &mut gen, 100, 8);
        let buf = saved(&train(&reg.catalog(), parts, &wl, &TrainingConfig::default()), parts);
        assert!(load_predictors(&buf[..], parts).is_ok());

        for cut in 0..buf.len() {
            assert!(load_predictors(&buf[..cut], parts).is_err(), "cut at {cut}");
        }
        let step = (buf.len() / 64).max(1);
        for at in (0..buf.len()).step_by(step) {
            let mut bad = buf.clone();
            bad[at] ^= 0x40;
            assert!(load_predictors(&bad[..], parts).is_err(), "byte {at} flipped");
        }
        assert!(load_predictors(JSON_BUNDLE.as_bytes(), parts).is_err());

        // A count no bundle could hold, behind a valid checksum: refused
        // before anything is allocated for it.
        let mut w = Writer::new();
        w.put_u64(MAGIC);
        w.put_u32(VERSION);
        w.put_u32(parts);
        w.put_u32(u32::MAX);
        let sum = fnv1a(&w.bytes()[HEADER..]);
        w.put_u64(sum);
        let err = load_predictors(w.bytes(), parts).err().expect("count past the bytes");
        assert!(err.to_string().contains("past the"), "{err}");
    }
}
