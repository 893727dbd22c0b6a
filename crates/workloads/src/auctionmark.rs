//! AuctionMark (paper §6.1, \[1\]).
//!
//! Ten stored procedures over auction data partitioned by the *seller's*
//! user id. Buyer/seller interactions (`NewBid`, `NewPurchase`) touch two
//! partitions; `GetUserInfo` has the conditional single-partition vs
//! multi-partition branches of Fig. 10c; `PostAuction` takes arbitrary-
//! length arrays (the paper's OP2 trouble case); and `CheckWinningBids` is
//! the >175-query maintenance transaction for which the paper disables
//! Houdini entirely (Table 4 row M).

use common::{derive_seed, seeded_rng, FxHashMap, ProcId, Value};
use engine::{
    ColumnOp, Linear, PartitionHint, ProcDef, ProcInstance, Procedure, ProcedureRegistry, QueryDef,
    QueryInvocation, QueryOp, RequestGenerator, Step,
};
use rand::rngs::SmallRng;
use rand::Rng;
use storage::{Database, Row, Schema, UndoLog};

/// Users loaded per partition.
pub const USERS_PER_PARTITION: u32 = 100;
/// Pre-loaded items per user.
pub const ITEMS_PER_USER: i64 = 3;
/// Item status values.
pub mod status {
    /// Auction open.
    pub const OPEN: i64 = 0;
    /// Auction ending (picked up by CheckWinningBids).
    pub const ENDING: i64 = 1;
    /// Auction closed.
    pub const CLOSED: i64 = 2;
}

/// Table ids, in schema order.
pub mod tables {
    /// USERACCT(U_ID, RATING, BALANCE)
    pub const USERACCT: usize = 0;
    /// ITEM(SELLER_ID, I_ID, PRICE, STATUS, NBIDS)
    pub const ITEM: usize = 1;
    /// BID(SELLER_ID, I_ID, BID_ID, BUYER_ID, AMOUNT)
    pub const BID: usize = 2;
    /// COMMENT(SELLER_ID, I_ID, CM_ID, FROM_ID)
    pub const COMMENT: usize = 3;
    /// FEEDBACK(USER_ID, FB_ID, FROM_ID, RATING)
    pub const FEEDBACK: usize = 4;
    /// WATCH(USER_ID, SELLER_ID, I_ID)
    pub const WATCH: usize = 5;
    /// PURCHASE(SELLER_ID, I_ID, PU_ID, BUYER_ID)
    pub const PURCHASE: usize = 6;
}

/// Builds and loads the AuctionMark database.
pub fn database(parts: u32) -> Database {
    let schemas = vec![
        Schema::new("USERACCT", &["U_ID", "RATING", "BALANCE"], &[0], Some(0)),
        Schema::new("ITEM", &["SELLER_ID", "I_ID", "PRICE", "STATUS", "NBIDS"], &[0, 1], Some(0)),
        Schema::new(
            "BID",
            &["SELLER_ID", "I_ID", "BID_ID", "BUYER_ID", "AMOUNT"],
            &[0, 1, 2],
            Some(0),
        ),
        Schema::new("COMMENT", &["SELLER_ID", "I_ID", "CM_ID", "FROM_ID"], &[0, 1, 2], Some(0)),
        Schema::new("FEEDBACK", &["USER_ID", "FB_ID", "FROM_ID", "RATING"], &[0, 1], Some(0)),
        Schema::new("WATCH", &["USER_ID", "SELLER_ID", "I_ID"], &[0, 1, 2], Some(0)),
        Schema::new("PURCHASE", &["SELLER_ID", "I_ID", "PU_ID", "BUYER_ID"], &[0, 1, 2], Some(0)),
    ];
    let mut db = Database::new(
        schemas,
        parts,
        &[
            ("ITEM", 0),     // items by seller (GetSellerItems)
            ("ITEM", 3),     // items by status (CheckWinningBids)
            ("BID", 1),      // bids by item
            ("BID", 3),      // bids by buyer (GetBuyerItems)
            ("FEEDBACK", 2), // feedback by author (GetBuyerFeedback)
            ("WATCH", 0),    // watches by user
        ],
    );
    let mut undo = UndoLog::new();
    let total_users = i64::from(parts * USERS_PER_PARTITION);
    for u in 0..total_users {
        let p = db.partition_for_value(&Value::Int(u));
        db.insert(
            p,
            tables::USERACCT,
            vec![Value::Int(u), Value::Int(u % 5), Value::Int(1000)],
            &mut undo,
        )
        .expect("load user");
        for k in 0..ITEMS_PER_USER {
            let i_id = u * 10 + k;
            let st = if (u + k) % 17 == 0 { status::ENDING } else { status::OPEN };
            db.insert(
                p,
                tables::ITEM,
                vec![
                    Value::Int(u),
                    Value::Int(i_id),
                    Value::Int(100),
                    Value::Int(st),
                    Value::Int(2),
                ],
                &mut undo,
            )
            .expect("load item");
            for b in 0..2i64 {
                let buyer = (u + b + 1) % total_users;
                db.insert(
                    p,
                    tables::BID,
                    vec![
                        Value::Int(u),
                        Value::Int(i_id),
                        Value::Int(i_id * 100 + b),
                        Value::Int(buyer),
                        Value::Int(100 + b),
                    ],
                    &mut undo,
                )
                .expect("load bid");
            }
        }
        for f in 0..2i64 {
            db.insert(
                p,
                tables::FEEDBACK,
                vec![
                    Value::Int(u),
                    Value::Int(f),
                    Value::Int((u + f + 3) % total_users),
                    Value::Int(5),
                ],
                &mut undo,
            )
            .expect("load feedback");
            let seller = (u + f + 1) % total_users;
            db.insert(
                p,
                tables::WATCH,
                vec![Value::Int(u), Value::Int(seller), Value::Int(seller * 10)],
                &mut undo,
            )
            .expect("load watch");
        }
    }
    db
}

// ---------------------------------------------------------------------------
// Procedure M: CheckWinningBids()  — >175 queries; Houdini disabled
// ---------------------------------------------------------------------------

/// Items processed per CheckWinningBids invocation.
const CWB_ITEMS: usize = 60;

fn check_winning_bids() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "CheckWinningBids".into(),
            queries: vec![
                QueryDef::new(
                    "GetEndedItems",
                    tables::ITEM,
                    QueryOp::LookupBy { column: 3, param: 0 },
                    PartitionHint::Broadcast,
                ),
                QueryDef::new(
                    "GetItemRec",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetItemBids",
                    tables::BID,
                    QueryOp::LookupBy { column: 1, param: 1 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetMaxBidder",
                    tables::USERACCT,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: true,
            can_abort: false,
        },
        start: |_args| Box::new(CheckWinningBidsRun { stage: 0, items: Vec::new(), cursor: 0 }),
    }
}

struct CheckWinningBidsRun {
    stage: u8,
    items: Vec<(Value, Value)>, // (seller, i_id)
    cursor: usize,
}

impl ProcInstance for CheckWinningBidsRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![Value::Int(status::ENDING)])])
            }
            1 => {
                let rows = &results.unwrap()[0];
                self.items =
                    rows.iter().take(CWB_ITEMS).map(|r| (r[0].clone(), r[1].clone())).collect();
                if self.items.is_empty() {
                    return Step::Commit;
                }
                self.stage = 2;
                let (s, i) = &self.items[0];
                Step::Queries(vec![
                    QueryInvocation::new(1, vec![s.clone(), i.clone()]),
                    QueryInvocation::new(2, vec![s.clone(), i.clone()]),
                ])
            }
            2 => {
                // Max bidder of the bids we just read.
                let bids = results.unwrap().last().unwrap();
                let max_bidder = bids
                    .iter()
                    .max_by_key(|b| b[4].expect_int())
                    .map(|b| b[3].clone())
                    .unwrap_or(Value::Int(0));
                self.stage = 3;
                Step::Queries(vec![QueryInvocation::new(3, vec![max_bidder])])
            }
            3 => {
                self.cursor += 1;
                if self.cursor < self.items.len() {
                    self.stage = 2;
                    let (s, i) = &self.items[self.cursor];
                    Step::Queries(vec![
                        QueryInvocation::new(1, vec![s.clone(), i.clone()]),
                        QueryInvocation::new(2, vec![s.clone(), i.clone()]),
                    ])
                } else {
                    Step::Commit
                }
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Simple linear procedures
// ---------------------------------------------------------------------------

// Procedure N: GetItem(seller_id, i_id)
fn get_item() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetItem".into(),
            queries: vec![
                QueryDef::new(
                    "GetItemRec",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetSeller",
                    tables::USERACCT,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: true,
            can_abort: false,
        },
        start: |args| {
            Box::new(Linear::one(vec![
                QueryInvocation::new(0, args.to_vec()),
                QueryInvocation::new(1, vec![args[0].clone()]),
            ]))
        },
    }
}

// ---------------------------------------------------------------------------
// Procedure O: GetUserInfo(user_id, seller_items, buyer_items, feedback)
// ---------------------------------------------------------------------------

fn get_user_info() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetUserInfo".into(),
            queries: vec![
                QueryDef::new(
                    "GetUser",
                    tables::USERACCT,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetSellerItems",
                    tables::ITEM,
                    QueryOp::LookupBy { column: 0, param: 0 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetBuyerItems",
                    tables::BID,
                    QueryOp::LookupBy { column: 3, param: 0 },
                    PartitionHint::Broadcast,
                ),
                QueryDef::new(
                    "GetBuyerFeedback",
                    tables::FEEDBACK,
                    QueryOp::LookupBy { column: 2, param: 0 },
                    PartitionHint::Broadcast,
                ),
            ],
            read_only: true,
            can_abort: false,
        },
        start: |args| {
            let user = args[0].clone();
            let mut second: Vec<QueryInvocation> = Vec::new();
            if args[1].expect_int() != 0 {
                second.push(QueryInvocation::new(1, vec![user.clone()]));
            }
            if args[2].expect_int() != 0 {
                second.push(QueryInvocation::new(2, vec![user.clone()]));
            }
            if args[3].expect_int() != 0 {
                second.push(QueryInvocation::new(3, vec![user.clone()]));
            }
            let mut batches = vec![(vec![QueryInvocation::new(0, vec![user])], false)];
            if !second.is_empty() {
                batches.push((second, false));
            }
            Box::new(Linear::new(batches))
        },
    }
}

// Procedure P: GetWatchedItems(user_id)
fn get_watched_items() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "GetWatchedItems".into(),
            queries: vec![QueryDef::new(
                "GetWatched",
                tables::WATCH,
                QueryOp::LookupBy { column: 0, param: 0 },
                PartitionHint::Param(0),
            )],
            read_only: true,
            can_abort: false,
        },
        start: |args| Box::new(Linear::one(vec![QueryInvocation::new(0, vec![args[0].clone()])])),
    }
}

// ---------------------------------------------------------------------------
// Procedure Q: NewBid(seller_id, i_id, bid_id, buyer_id, amount)
// ---------------------------------------------------------------------------

fn new_bid() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "NewBid".into(),
            queries: vec![
                QueryDef::new(
                    "GetItem",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertBid",
                    tables::BID,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateItemBids",
                    tables::ITEM,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![
                            ColumnOp::Set { column: 2, param: 2 },
                            ColumnOp::Add { column: 4, param: 3 },
                        ],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateBuyerBalance",
                    tables::USERACCT,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Add { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| Box::new(NewBidRun { args: args.to_vec(), stage: 0 }),
    }
}

struct NewBidRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for NewBidRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        let [seller, i_id, bid_id, buyer, amount] = &self.args[..] else {
            return Step::Abort("bad args".into());
        };
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![seller.clone(), i_id.clone()])])
            }
            1 => {
                let item = &results.unwrap()[0];
                match item.first() {
                    None => Step::Abort("no such item".into()),
                    Some(r) if r[3].expect_int() == status::CLOSED => {
                        Step::Abort("auction closed".into())
                    }
                    Some(_) => {
                        self.stage = 2;
                        Step::Queries(vec![
                            QueryInvocation::new(
                                1,
                                vec![
                                    seller.clone(),
                                    i_id.clone(),
                                    bid_id.clone(),
                                    buyer.clone(),
                                    amount.clone(),
                                ],
                            ),
                            QueryInvocation::new(
                                2,
                                vec![seller.clone(), i_id.clone(), amount.clone(), Value::Int(1)],
                            ),
                        ])
                    }
                }
            }
            2 => {
                self.stage = 3;
                Step::Queries(vec![QueryInvocation::new(
                    3,
                    vec![buyer.clone(), Value::Int(-amount.expect_int())],
                )])
            }
            _ => Step::Commit,
        }
    }
}

// Procedure R: NewComment(seller_id, i_id, cm_id, from_id) — shortest txn.
fn new_comment() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "NewComment".into(),
            queries: vec![
                QueryDef::new(
                    "GetItemRec",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertComment",
                    tables::COMMENT,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| {
            Box::new(Linear::new(vec![
                (vec![QueryInvocation::new(0, vec![args[0].clone(), args[1].clone()])], false),
                (vec![QueryInvocation::new(1, args.to_vec())], true),
            ]))
        },
    }
}

// Procedure S: NewItem(seller_id, i_id, price)
fn new_item() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "NewItem".into(),
            queries: vec![
                QueryDef::new(
                    "GetSeller",
                    tables::USERACCT,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertItem",
                    tables::ITEM,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| {
            let item = vec![
                args[0].clone(),
                args[1].clone(),
                args[2].clone(),
                Value::Int(status::OPEN),
                Value::Int(0),
            ];
            Box::new(Linear::new(vec![
                (vec![QueryInvocation::new(0, vec![args[0].clone()])], false),
                (vec![QueryInvocation::new(1, item)], true),
            ]))
        },
    }
}

// ---------------------------------------------------------------------------
// Procedure T: NewPurchase(seller_id, i_id, pu_id, buyer_id, amount)
// ---------------------------------------------------------------------------

fn new_purchase() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "NewPurchase".into(),
            queries: vec![
                QueryDef::new(
                    "GetItem",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertPurchase",
                    tables::PURCHASE,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateItemStatus",
                    tables::ITEM,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Set { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateSellerBalance",
                    tables::USERACCT,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Add { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateBuyerBalance",
                    tables::USERACCT,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Add { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| Box::new(NewPurchaseRun { args: args.to_vec(), stage: 0 }),
    }
}

struct NewPurchaseRun {
    args: Vec<Value>,
    stage: u8,
}

impl ProcInstance for NewPurchaseRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        let [seller, i_id, pu_id, buyer, amount] = &self.args[..] else {
            return Step::Abort("bad args".into());
        };
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![seller.clone(), i_id.clone()])])
            }
            1 => {
                if results.unwrap()[0].is_empty() {
                    return Step::Abort("no such item".into());
                }
                self.stage = 2;
                Step::Queries(vec![
                    QueryInvocation::new(
                        1,
                        vec![seller.clone(), i_id.clone(), pu_id.clone(), buyer.clone()],
                    ),
                    QueryInvocation::new(
                        2,
                        vec![seller.clone(), i_id.clone(), Value::Int(status::CLOSED)],
                    ),
                    QueryInvocation::new(3, vec![seller.clone(), amount.clone()]),
                ])
            }
            2 => {
                self.stage = 3;
                Step::Queries(vec![QueryInvocation::new(
                    4,
                    vec![buyer.clone(), Value::Int(-amount.expect_int())],
                )])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure U: PostAuction(seller_ids[], i_ids[], buyer_ids[])
// ---------------------------------------------------------------------------

fn post_auction() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "PostAuction".into(),
            queries: vec![
                QueryDef::new(
                    "UpdateItemStatus",
                    tables::ITEM,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Set { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateBuyerBalance",
                    tables::USERACCT,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Add { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| {
            let sellers = args[0].as_array().expect("seller_ids").to_vec();
            let items = args[1].as_array().expect("i_ids").to_vec();
            let buyers = args[2].as_array().expect("buyer_ids").to_vec();
            let mut batches = Vec::with_capacity(sellers.len());
            for k in 0..sellers.len() {
                let batch = vec![
                    QueryInvocation::new(
                        0,
                        vec![sellers[k].clone(), items[k].clone(), Value::Int(status::CLOSED)],
                    ),
                    QueryInvocation::new(1, vec![buyers[k].clone(), Value::Int(10)]),
                ];
                batches.push((batch, false));
            }
            Box::new(Linear::new(batches))
        },
    }
}

// Procedure V: UpdateItem(seller_id, i_id, price)
fn update_item() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "UpdateItem".into(),
            queries: vec![
                QueryDef::new(
                    "GetItemRec",
                    tables::ITEM,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "SetItemPrice",
                    tables::ITEM,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Set { column: 2, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| {
            Box::new(Linear::new(vec![
                (vec![QueryInvocation::new(0, vec![args[0].clone(), args[1].clone()])], false),
                (vec![QueryInvocation::new(1, args.to_vec())], true),
            ]))
        },
    }
}

/// Builds the AuctionMark registry (letters M–V of Table 4).
pub fn registry() -> ProcedureRegistry {
    ProcedureRegistry::new(vec![
        check_winning_bids(), // M
        get_item(),           // N
        get_user_info(),      // O
        get_watched_items(),  // P
        new_bid(),            // Q
        new_comment(),        // R
        new_item(),           // S
        new_purchase(),       // T
        post_auction(),       // U
        update_item(),        // V
    ])
}

/// AuctionMark request generator.
pub struct Generator {
    parts: u32,
    seed: u64,
    rngs: FxHashMap<u64, SmallRng>,
    counter: i64,
}

impl Generator {
    /// New generator.
    pub fn new(parts: u32, seed: u64) -> Self {
        Generator { parts, seed, rngs: FxHashMap::default(), counter: 0 }
    }

    /// An independent generator for one client stream: identical per-client
    /// RNG streams, with unique ids drawn from a per-client block (stride
    /// 2^40) so concurrent streams never collide on inserts.
    pub fn for_client(parts: u32, seed: u64, client: u64) -> Self {
        Generator { parts, seed, rngs: FxHashMap::default(), counter: (client as i64) << 40 }
    }
}

impl RequestGenerator for Generator {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        self.counter += 1;
        let unique = 1_000_000 + self.counter;
        let total_users = i64::from(self.parts * USERS_PER_PARTITION);
        let seed = self.seed;
        let rng = self.rngs.entry(client).or_insert_with(|| seeded_rng(derive_seed(seed, client)));
        let seller = rng.gen_range(0..total_users);
        let buyer = rng.gen_range(0..total_users);
        let item = Value::Int(seller * 10 + rng.gen_range(0..ITEMS_PER_USER));
        let mix: u32 = rng.gen_range(0..200);
        match mix {
            0..=49 => (1, vec![Value::Int(seller), item]), // GetItem 25%
            50..=79 => {
                // GetUserInfo 15%: 60% seller-items only, 25% buyer items,
                // 15% buyer items + feedback (Fig. 10c's branch mix).
                let branch: u32 = rng.gen_range(0..100);
                let (si, bi, fb) = match branch {
                    0..=59 => (1, 0, 0),
                    60..=84 => (0, 1, 0),
                    _ => (0, 1, 1),
                };
                (
                    2,
                    vec![
                        Value::Int(rng.gen_range(0..total_users)),
                        Value::Int(si),
                        Value::Int(bi),
                        Value::Int(fb),
                    ],
                )
            }
            80..=99 => (3, vec![Value::Int(rng.gen_range(0..total_users))]), // GetWatchedItems 10%
            100..=139 => (
                4, // NewBid 20%
                vec![
                    Value::Int(seller),
                    item,
                    Value::Int(unique),
                    Value::Int(buyer),
                    Value::Int(rng.gen_range(10..500)),
                ],
            ),
            140..=151 => (
                5, // NewComment 6%
                vec![Value::Int(seller), item, Value::Int(unique), Value::Int(buyer)],
            ),
            152..=171 => (
                6, // NewItem 10%
                vec![Value::Int(seller), Value::Int(unique), Value::Int(rng.gen_range(50..500))],
            ),
            172..=181 => (
                7, // NewPurchase 5%
                vec![
                    Value::Int(seller),
                    item,
                    Value::Int(unique),
                    Value::Int(buyer),
                    Value::Int(rng.gen_range(50..500)),
                ],
            ),
            182..=195 => (
                9, // UpdateItem 7%
                vec![Value::Int(seller), item, Value::Int(rng.gen_range(50..500))],
            ),
            196..=198 => {
                // PostAuction 1.5%: arbitrary-length arrays.
                let n = rng.gen_range(1..=5usize);
                let mut sellers = Vec::with_capacity(n);
                let mut items = Vec::with_capacity(n);
                let mut buyers = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = rng.gen_range(0..total_users);
                    sellers.push(Value::Int(s));
                    items.push(Value::Int(s * 10 + rng.gen_range(0..ITEMS_PER_USER)));
                    buyers.push(Value::Int(rng.gen_range(0..total_users)));
                }
                (8, vec![Value::Array(sellers), Value::Array(items), Value::Array(buyers)])
            }
            _ => (0, vec![]), // CheckWinningBids 0.5%
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
        assert_eq!(db.total_rows(tables::USERACCT), 400);
        assert_eq!(db.total_rows(tables::ITEM), 1200);
        assert_eq!(db.total_rows(tables::BID), 2400);
    }

    #[test]
    fn get_item_single_partition() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out =
            run_offline(&mut db, &reg, &cat, 1, &[Value::Int(5), Value::Int(50)], true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
    }

    #[test]
    fn new_bid_spans_buyer_and_seller() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        // seller 1 (partition 1), buyer 2 (partition 2).
        let out = run_offline(
            &mut db,
            &reg,
            &cat,
            4,
            &[Value::Int(1), Value::Int(10), Value::Int(777_777), Value::Int(2), Value::Int(50)],
            true,
        )
        .unwrap();
        assert!(out.committed);
        assert_eq!(out.touched.len(), 2);
        // Buyer balance decremented.
        assert_eq!(db.get(2, tables::USERACCT, &[Value::Int(2)]).unwrap()[2], Value::Int(950));
    }

    #[test]
    fn new_bid_aborts_on_closed_auction() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        // Close item (1, 10) first via NewPurchase.
        run_offline(
            &mut db,
            &reg,
            &cat,
            7,
            &[Value::Int(1), Value::Int(10), Value::Int(888_888), Value::Int(2), Value::Int(100)],
            true,
        )
        .unwrap();
        let out = run_offline(
            &mut db,
            &reg,
            &cat,
            4,
            &[Value::Int(1), Value::Int(10), Value::Int(999_999), Value::Int(3), Value::Int(60)],
            true,
        )
        .unwrap();
        assert!(!out.committed, "bids on closed auctions abort");
    }

    #[test]
    fn get_user_info_branches() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        // Seller-items branch: single partition.
        let sp = run_offline(
            &mut db,
            &reg,
            &cat,
            2,
            &[Value::Int(5), Value::Int(1), Value::Int(0), Value::Int(0)],
            true,
        )
        .unwrap();
        assert!(sp.touched.is_single());
        // Buyer-items branch: broadcast (multi-partition).
        let mp = run_offline(
            &mut db,
            &reg,
            &cat,
            2,
            &[Value::Int(5), Value::Int(0), Value::Int(1), Value::Int(0)],
            true,
        )
        .unwrap();
        assert_eq!(mp.touched.len(), 4);
    }

    #[test]
    fn check_winning_bids_exceeds_175_queries() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out = run_offline(&mut db, &reg, &cat, 0, &[], true).unwrap();
        assert!(out.committed);
        assert!(out.record.queries.len() > 175, "only {} queries", out.record.queries.len());
        assert_eq!(out.touched.len(), 4, "broadcast plus per-seller accesses");
    }

    #[test]
    fn post_auction_variable_arrays() {
        let mut db = database(4);
        let reg = registry();
        let cat = reg.catalog();
        let out = run_offline(
            &mut db,
            &reg,
            &cat,
            8,
            &[
                Value::Array(vec![Value::Int(1), Value::Int(2)]),
                Value::Array(vec![Value::Int(10), Value::Int(20)]),
                Value::Array(vec![Value::Int(3), Value::Int(0)]),
            ],
            true,
        )
        .unwrap();
        assert!(out.committed);
        assert_eq!(out.record.queries.len(), 4);
        // Item (1,10) now closed.
        assert_eq!(
            db.get(1, tables::ITEM, &[Value::Int(1), Value::Int(10)]).unwrap()[3],
            Value::Int(status::CLOSED)
        );
    }

    #[test]
    fn generator_covers_all_procedures() {
        let mut g = Generator::new(4, 13);
        let mut seen = [0u32; 10];
        for i in 0..4000 {
            let (p, _) = g.next_request(i % 16);
            seen[p as usize] += 1;
        }
        for (i, &c) in seen.iter().enumerate() {
            assert!(c > 0, "procedure {i} never generated: {seen:?}");
        }
    }
}
