//! TATP — Telecom Application Transaction Processing (paper §6.1, \[25\]).
//!
//! Seven stored procedures over four tables partitioned by subscriber id.
//! Four procedures are always single-partition; `DeleteCallFwrd`,
//! `InsertCallFwrd`, and `UpdateLocation` first execute a broadcast query
//! that resolves a subscriber number (a column the tables are *not*
//! partitioned on) to a subscriber id, then operate on that subscriber's
//! partition — the access pattern of Fig. 10a that makes OP1 unpredictable
//! and OP4 valuable.

use common::{derive_seed, seeded_rng, FxHashMap, ProcId, Value};
use engine::{
    ColumnOp, Linear, PartitionHint, ProcDef, ProcInstance, Procedure, ProcedureRegistry, QueryDef,
    QueryInvocation, QueryOp, RequestGenerator, Step,
};
use rand::rngs::SmallRng;
use rand::Rng;
use storage::{Database, Row, Schema, UndoLog};

/// Subscribers loaded per partition.
pub const SUBS_PER_PARTITION: u32 = 200;

/// Table ids, in schema order.
pub mod tables {
    /// SUBSCRIBER(S_ID, SUB_NBR, BIT_1, MSC_LOC, VLR_LOC)
    pub const SUBSCRIBER: usize = 0;
    /// ACCESS_INFO(S_ID, AI_TYPE, DATA1)
    pub const ACCESS_INFO: usize = 1;
    /// SPECIAL_FACILITY(S_ID, SF_TYPE, IS_ACTIVE, DATA_A)
    pub const SPECIAL_FACILITY: usize = 2;
    /// CALL_FORWARDING(S_ID, SF_TYPE, START_TIME, NUMBERX)
    pub const CALL_FORWARDING: usize = 3;
}

/// Builds and loads the TATP database for `parts` partitions.
pub fn database(parts: u32) -> Database {
    let schemas = vec![
        Schema::new(
            "SUBSCRIBER",
            &["S_ID", "SUB_NBR", "BIT_1", "MSC_LOC", "VLR_LOC"],
            &[0],
            Some(0),
        ),
        Schema::new("ACCESS_INFO", &["S_ID", "AI_TYPE", "DATA1"], &[0, 1], Some(0)),
        Schema::new(
            "SPECIAL_FACILITY",
            &["S_ID", "SF_TYPE", "IS_ACTIVE", "DATA_A"],
            &[0, 1],
            Some(0),
        ),
        Schema::new(
            "CALL_FORWARDING",
            &["S_ID", "SF_TYPE", "START_TIME", "NUMBERX"],
            &[0, 1, 2],
            Some(0),
        ),
    ];
    let mut db = Database::new(
        schemas,
        parts,
        &[
            ("SUBSCRIBER", 1),       // SUB_NBR lookups
            ("SPECIAL_FACILITY", 0), // per-subscriber SF scans
            ("CALL_FORWARDING", 0),
        ],
    );
    let mut undo = UndoLog::new();
    let total = i64::from(parts * SUBS_PER_PARTITION);
    for s in 0..total {
        let p = db.partition_for_value(&Value::Int(s));
        db.insert(
            p,
            tables::SUBSCRIBER,
            vec![
                Value::Int(s),
                Value::Str(sub_nbr(s)),
                Value::Int(s % 2),
                Value::Int(s * 10),
                Value::Int(s * 10 + 1),
            ],
            &mut undo,
        )
        .expect("load subscriber");
        for ai in 1..=2i64 {
            db.insert(
                p,
                tables::ACCESS_INFO,
                vec![Value::Int(s), Value::Int(ai), Value::Int(s + ai)],
                &mut undo,
            )
            .expect("load access_info");
        }
        for sf in 1..=4i64 {
            let active = i64::from((s + sf) % 4 != 0); // 75% active
            db.insert(
                p,
                tables::SPECIAL_FACILITY,
                vec![Value::Int(s), Value::Int(sf), Value::Int(active), Value::Int(sf)],
                &mut undo,
            )
            .expect("load special_facility");
            if (s + sf) % 2 == 0 {
                for st in [0i64, 8] {
                    db.insert(
                        p,
                        tables::CALL_FORWARDING,
                        vec![Value::Int(s), Value::Int(sf), Value::Int(st), Value::Str(sub_nbr(s))],
                        &mut undo,
                    )
                    .expect("load call_forwarding");
                }
            }
        }
    }
    db
}

/// The subscriber-number string for `s_id` (the non-partitioning lookup key).
pub fn sub_nbr(s_id: i64) -> String {
    format!("NBR{s_id:012}")
}

fn broadcast_sub_lookup() -> QueryDef {
    QueryDef::new(
        "GetSubscriber",
        tables::SUBSCRIBER,
        QueryOp::LookupBy { column: 1, param: 0 },
        PartitionHint::Broadcast,
    )
}

// ---------------------------------------------------------------------------
// Procedure A: DeleteCallFwrd(sub_nbr, sf_type, start_time)
// ---------------------------------------------------------------------------

fn delete_call_fwrd() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "DeleteCallFwrd".into(),
            queries: vec![
                broadcast_sub_lookup(),
                QueryDef::new(
                    "DeleteCallFwrd",
                    tables::CALL_FORWARDING,
                    QueryOp::DeleteByKey { key_params: vec![0, 1, 2] },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| Box::new(DeleteCallFwrdRun { args: args.to_vec(), stage: 0 }),
    }
}

struct DeleteCallFwrdRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for DeleteCallFwrdRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![self.args[0].clone()])])
            }
            1 => {
                let rows = &results.unwrap()[0];
                let Some(sub) = rows.first() else {
                    return Step::Abort("unknown subscriber".into());
                };
                self.stage = 2;
                Step::Queries(vec![QueryInvocation::new(
                    1,
                    vec![sub[0].clone(), self.args[1].clone(), self.args[2].clone()],
                )])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure B: GetAccessData(s_id, ai_type)  — always single-partition
// ---------------------------------------------------------------------------

fn get_access_data() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetAccessData".into(),
            queries: vec![QueryDef::new(
                "GetAccessInfo",
                tables::ACCESS_INFO,
                QueryOp::GetByKey { key_params: vec![0, 1] },
                PartitionHint::Param(0),
            )],
            read_only: true,
            can_abort: false,
        },
        start: |args| Box::new(Linear::one(vec![QueryInvocation::new(0, args.to_vec())])),
    }
}

// ---------------------------------------------------------------------------
// Procedure C: GetNewDest(s_id, sf_type, start_time)
// ---------------------------------------------------------------------------

fn get_new_dest() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetNewDest".into(),
            queries: vec![
                QueryDef::new(
                    "GetSpecialFacility",
                    tables::SPECIAL_FACILITY,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetCallForwarding",
                    tables::CALL_FORWARDING,
                    QueryOp::GetByKey { key_params: vec![0, 1, 2] },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: true,
            can_abort: true,
        },
        start: |args| Box::new(GetNewDestRun { args: args.to_vec(), stage: 0 }),
    }
}

struct GetNewDestRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for GetNewDestRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(
                    0,
                    vec![self.args[0].clone(), self.args[1].clone()],
                )])
            }
            1 => {
                let rows = &results.unwrap()[0];
                let active = rows.first().map(|r| r[2].expect_int()).unwrap_or(0);
                if active == 0 {
                    return Step::Abort("no active special facility".into());
                }
                self.stage = 2;
                Step::Queries(vec![QueryInvocation::new(1, self.args.clone())])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure D: GetSubscriber(s_id)  — always single-partition
// ---------------------------------------------------------------------------

fn get_subscriber() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetSubscriber".into(),
            queries: vec![QueryDef::new(
                "GetSubscriberData",
                tables::SUBSCRIBER,
                QueryOp::GetByKey { key_params: vec![0] },
                PartitionHint::Param(0),
            )],
            read_only: true,
            can_abort: false,
        },
        start: |args| Box::new(Linear::one(vec![QueryInvocation::new(0, args.to_vec())])),
    }
}

// ---------------------------------------------------------------------------
// Procedure E: InsertCallFwrd(sub_nbr, sf_type, start_time, numberx)
// ---------------------------------------------------------------------------

fn insert_call_fwrd() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "InsertCallFwrd".into(),
            queries: vec![
                broadcast_sub_lookup(),
                QueryDef::new(
                    "GetSFType",
                    tables::SPECIAL_FACILITY,
                    QueryOp::LookupBy { column: 0, param: 0 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertCallFwrd",
                    tables::CALL_FORWARDING,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| {
            Box::new(InsertCallFwrdRun { args: args.to_vec(), stage: 0, s_id: Value::Null })
        },
    }
}

struct InsertCallFwrdRun {
    args: Vec<Value>,
    stage: u8,
    s_id: Value,
}

impl ProcInstance for InsertCallFwrdRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![self.args[0].clone()])])
            }
            1 => {
                let rows = &results.unwrap()[0];
                let Some(sub) = rows.first() else {
                    return Step::Abort("unknown subscriber".into());
                };
                self.s_id = sub[0].clone();
                self.stage = 2;
                Step::Queries(vec![QueryInvocation::new(1, vec![self.s_id.clone()])])
            }
            2 => {
                if results.unwrap()[0].is_empty() {
                    return Step::Abort("no special facility".into());
                }
                self.stage = 3;
                Step::Queries(vec![QueryInvocation::new(
                    2,
                    vec![
                        self.s_id.clone(),
                        self.args[1].clone(),
                        self.args[2].clone(),
                        self.args[3].clone(),
                    ],
                )])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure F: UpdateLocation(sub_nbr, vlr_location)
// ---------------------------------------------------------------------------

fn update_location() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "UpdateLocation".into(),
            queries: vec![
                broadcast_sub_lookup(),
                QueryDef::new(
                    "UpdateSubscriberLoc",
                    tables::SUBSCRIBER,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Set { column: 4, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| Box::new(UpdateLocationRun { args: args.to_vec(), stage: 0 }),
    }
}

struct UpdateLocationRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for UpdateLocationRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![self.args[0].clone()])])
            }
            1 => {
                let rows = &results.unwrap()[0];
                let Some(sub) = rows.first() else {
                    return Step::Abort("unknown subscriber".into());
                };
                self.stage = 2;
                Step::Queries(vec![QueryInvocation::new(
                    1,
                    vec![sub[0].clone(), self.args[1].clone()],
                )])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure G: UpdateSubscriber(s_id, bit_1, sf_type, data_a)
// ---------------------------------------------------------------------------

fn update_subscriber() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "UpdateSubscriber".into(),
            queries: vec![
                QueryDef::new(
                    "UpdateSubscriberBit",
                    tables::SUBSCRIBER,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Set { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateSpecialFacility",
                    tables::SPECIAL_FACILITY,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Set { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| Box::new(UpdateSubscriberRun { args: args.to_vec(), stage: 0 }),
    }
}

struct UpdateSubscriberRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for UpdateSubscriberRun {
    fn next(&mut self, _results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(
                    0,
                    vec![self.args[0].clone(), self.args[1].clone()],
                )])
            }
            1 => {
                self.stage = 2;
                Step::Queries(vec![QueryInvocation::new(
                    1,
                    vec![self.args[0].clone(), self.args[2].clone(), self.args[3].clone()],
                )])
            }
            _ => Step::Commit,
        }
    }
}

/// Builds the TATP procedure registry (procedure letters A–G of Table 4).
pub fn registry() -> ProcedureRegistry {
    ProcedureRegistry::new(vec![
        delete_call_fwrd(),  // A
        get_access_data(),   // B
        get_new_dest(),      // C
        get_subscriber(),    // D
        insert_call_fwrd(),  // E
        update_location(),   // F
        update_subscriber(), // G
    ])
}

/// TATP request generator with the standard transaction mix.
///
/// Subscriber ids are drawn uniformly from the whole population by
/// default; [`Generator::with_hot_partitions`] narrows the draw to the
/// subscribers of a *partition* range (subscribers map to partitions by
/// `s_id % parts`, so an id-range skew would still touch every partition),
/// and [`Generator::with_partition_flip`] makes the hot range switch
/// mid-stream — the workload-shift scenario of the paper's §4.5
/// maintenance loop (Fig. 11), used by the `live-drift` experiment.
pub struct Generator {
    parts: u32,
    seed: u64,
    rngs: FxHashMap<u64, SmallRng>,
    insert_counter: i64,
    /// Hot partition range `[lo, hi)`; `None` = all partitions.
    hot: Option<(u32, u32)>,
    /// After `flip_after` requests from this generator, `hot` becomes
    /// `flip_to` (a mid-stream skew flip).
    flip_to: Option<(u32, u32)>,
    flip_after: u64,
    issued: u64,
}

impl Generator {
    /// New generator for a cluster of `parts` partitions.
    pub fn new(parts: u32, seed: u64) -> Self {
        Generator {
            parts,
            seed,
            rngs: FxHashMap::default(),
            insert_counter: 0,
            hot: None,
            flip_to: None,
            flip_after: 0,
            issued: 0,
        }
    }

    /// An independent generator for one client stream. Per-client RNG
    /// streams already derive from `(seed, client)`, so this produces
    /// exactly the requests the shared generator would hand that client;
    /// only the unique insert timestamps come from a per-client block
    /// (stride 2^40) so concurrent streams never collide.
    pub fn for_client(parts: u32, seed: u64, client: u64) -> Self {
        Generator { insert_counter: (client as i64) << 40, ..Generator::new(parts, seed) }
    }

    /// Restricts subscriber draws to partitions `[lo, hi)` — partition
    /// skew. The standard procedure mix is preserved in distribution (the
    /// mix draw is independent of the subscriber draw).
    #[must_use]
    pub fn with_hot_partitions(mut self, lo: u32, hi: u32) -> Self {
        assert!(lo < hi && hi <= self.parts, "bad hot partition range");
        self.hot = Some((lo, hi));
        self
    }

    /// Switches the hot partitions to `[lo, hi)` after this generator has
    /// issued `after` requests: the mid-run skew flip of the `live-drift`
    /// experiment.
    #[must_use]
    pub fn with_partition_flip(mut self, lo: u32, hi: u32, after: u64) -> Self {
        assert!(lo < hi && hi <= self.parts, "bad flip partition range");
        self.flip_to = Some((lo, hi));
        self.flip_after = after;
        self
    }

    /// Uniform subscriber draw over the partitions `[lo, hi)`: subscriber
    /// `s` lives at partition `s % parts`, so the draw picks an index and
    /// a partition within the hot range and recombines them.
    fn draw_subscriber(rng: &mut SmallRng, parts: u32, range: (u32, u32)) -> i64 {
        let (lo, hi) = range;
        let width = i64::from(hi - lo);
        let k = rng.gen_range(0..width * i64::from(SUBS_PER_PARTITION));
        (k / width) * i64::from(parts) + i64::from(lo) + (k % width)
    }

    fn total_subs(&self) -> i64 {
        i64::from(self.parts * SUBS_PER_PARTITION)
    }
}

impl RequestGenerator for Generator {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        self.issued += 1;
        if let Some(flip) = self.flip_to {
            if self.issued > self.flip_after {
                self.hot = Some(flip);
            }
        }
        let seed = self.seed;
        let parts = self.parts;
        let range = self.hot.unwrap_or((0, parts));
        let rng = self.rngs.entry(client).or_insert_with(|| seeded_rng(derive_seed(seed, client)));
        let s_id = Self::draw_subscriber(rng, parts, range);
        let mix: u32 = rng.gen_range(0..100);
        // TATP standard mix: GetSubscriber 35, GetAccessData 35, GetNewDest
        // 10, UpdateLocation 14, UpdateSubscriber 2, InsertCallFwrd 2,
        // DeleteCallFwrd 2.
        match mix {
            0..=34 => (3, vec![Value::Int(s_id)]), // GetSubscriber
            35..=69 => (1, vec![Value::Int(s_id), Value::Int(rng.gen_range(1..=2))]), // GetAccessData
            70..=79 => (
                2,
                vec![
                    Value::Int(s_id),
                    Value::Int(rng.gen_range(1..=4)),
                    Value::Int(if rng.gen_bool(0.5) { 0 } else { 8 }),
                ],
            ), // GetNewDest
            80..=93 => (5, vec![Value::Str(sub_nbr(s_id)), Value::Int(rng.gen_range(0..1 << 20))]), // UpdateLocation
            94..=95 => (
                6,
                vec![
                    Value::Int(s_id),
                    Value::Int(rng.gen_range(0..=1)),
                    Value::Int(rng.gen_range(1..=4)),
                    Value::Int(rng.gen_range(0..256)),
                ],
            ), // UpdateSubscriber
            96..=97 => {
                // InsertCallFwrd with a never-colliding start time.
                self.insert_counter += 1;
                (
                    4,
                    vec![
                        Value::Str(sub_nbr(s_id)),
                        Value::Int(self.rngs.get_mut(&client).unwrap().gen_range(1..=4)),
                        Value::Int(100 + self.insert_counter),
                        Value::Str(sub_nbr((s_id + 1) % self.total_subs())),
                    ],
                )
            }
            _ => (
                0,
                vec![
                    Value::Str(sub_nbr(s_id)),
                    Value::Int(rng.gen_range(1..=4)),
                    Value::Int(if rng.gen_bool(0.5) { 0 } else { 8 }),
                ],
            ), // DeleteCallFwrd
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::run_offline;

    #[test]
    fn loads_expected_rows() {
        let db = database(4);
        assert_eq!(db.total_rows(tables::SUBSCRIBER), 800);
        assert_eq!(db.total_rows(tables::ACCESS_INFO), 1600);
        assert_eq!(db.total_rows(tables::SPECIAL_FACILITY), 3200);
    }

    #[test]
    fn get_subscriber_is_single_partition() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out = run_offline(&mut db, &reg, &cat, 3, &[Value::Int(5)], true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
        assert_eq!(out.touched.first(), Some(1)); // 5 % 4
    }

    #[test]
    fn update_location_broadcasts_then_narrows() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out =
            run_offline(&mut db, &reg, &cat, 5, &[Value::Str(sub_nbr(6)), Value::Int(42)], true)
                .unwrap();
        assert!(out.committed);
        assert_eq!(out.touched.len(), 4, "broadcast touches everything");
        assert_eq!(out.record.queries.len(), 2);
        // Effect landed on subscriber 6 (partition 2).
        assert_eq!(db.get(2, tables::SUBSCRIBER, &[Value::Int(6)]).unwrap()[4], Value::Int(42));
    }

    #[test]
    fn get_new_dest_aborts_on_inactive_facility() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        // (s + sf) % 4 == 0 -> inactive; s=1, sf=3.
        let out = run_offline(
            &mut db,
            &reg,
            &cat,
            2,
            &[Value::Int(1), Value::Int(3), Value::Int(0)],
            true,
        )
        .unwrap();
        assert!(!out.committed);
    }

    #[test]
    fn insert_call_fwrd_inserts_at_subscriber_partition() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out = run_offline(
            &mut db,
            &reg,
            &cat,
            4,
            &[Value::Str(sub_nbr(9)), Value::Int(1), Value::Int(999), Value::Str("X".into())],
            true,
        )
        .unwrap();
        assert!(out.committed);
        assert!(db
            .get(1, tables::CALL_FORWARDING, &[Value::Int(9), Value::Int(1), Value::Int(999)])
            .is_some());
    }

    #[test]
    fn generator_mix_hits_every_procedure() {
        let mut g = Generator::new(4, 11);
        let mut seen = [0u32; 7];
        for i in 0..2000 {
            let (p, _) = g.next_request(i % 8);
            seen[p as usize] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 0, "procedure {i} never generated");
        }
        // GetSubscriber (id 3) should dominate alongside GetAccessData.
        assert!(seen[3] > seen[0] * 5);
    }

    #[test]
    fn skewed_generator_flips_hot_partitions_mid_stream() {
        let total = i64::from(4 * SUBS_PER_PARTITION);
        let mut g = Generator::new(4, 3).with_hot_partitions(0, 2).with_partition_flip(2, 4, 100);
        let s_of = |args: &[Value]| match &args[0] {
            Value::Int(s) => *s,
            Value::Str(nbr) => nbr[3..].parse::<i64>().unwrap(),
            other => panic!("unexpected arg {other:?}"),
        };
        for i in 0..200u64 {
            let (_, args) = g.next_request(0);
            let s = s_of(&args);
            assert!((0..total).contains(&s), "subscriber {s} out of range");
            if i < 100 {
                assert!(s % 4 < 2, "request {i} drew partition {} pre-flip", s % 4);
            } else {
                assert!(s % 4 >= 2, "request {i} drew partition {} post-flip", s % 4);
            }
        }
    }

    #[test]
    fn skewed_generator_still_hits_every_procedure() {
        let mut g = Generator::new(4, 11).with_hot_partitions(0, 2);
        let mut seen = [0u32; 7];
        for i in 0..2000 {
            let (p, _) = g.next_request(i % 8);
            seen[p as usize] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 0, "procedure {i} never generated under skew");
        }
    }

    #[test]
    fn default_draw_matches_the_unskewed_stream() {
        // The hot-partition machinery with the full range must reproduce
        // the historical uniform draw bit-for-bit (recorded expectations
        // elsewhere depend on the stream).
        let mut a = Generator::new(4, 5);
        let mut b = Generator::new(4, 5).with_hot_partitions(0, 4);
        for c in 0..4 {
            for _ in 0..100 {
                assert_eq!(a.next_request(c), b.next_request(c));
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = Generator::new(4, 5);
        let mut b = Generator::new(4, 5);
        for c in 0..4 {
            assert_eq!(a.next_request(c), b.next_request(c));
        }
    }
}
