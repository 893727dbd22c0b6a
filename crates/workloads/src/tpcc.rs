//! TPC-C, simplified to the shapes the paper uses (§2.1 Fig. 2, §6.1).
//!
//! One warehouse per partition (the paper assigns two partitions per node
//! and partitions by warehouse id). `NewOrder` follows the paper's Fig. 2
//! simplification exactly — `GetWarehouse`, a `CheckStock` per item, then
//! `InsertOrder` and an `InsertOrdLine`/`UpdateStock` pair per item, where
//! remote items make the transaction distributed. `Payment` follows the
//! Fig. 10b shape with its good-credit/bad-credit conditional branch and a
//! 15% remote customer. `OrderStatus`, `Delivery`, and `StockLevel` are
//! always single-partition; `Delivery` executes the most queries and is the
//! longest transaction (Table 4 row H).

use common::{derive_seed, seeded_rng, FxHashMap, FxHashSet, ProcId, Value};
use engine::{
    ColumnOp, PartitionHint, ProcDef, ProcInstance, Procedure, ProcedureRegistry, QueryDef,
    QueryInvocation, QueryOp, RequestGenerator, Step,
};
use rand::rngs::SmallRng;
use rand::Rng;
use storage::{Database, Row, Schema, UndoLog};

/// Customers loaded per warehouse.
pub const CUSTOMERS_PER_WAREHOUSE: i64 = 300;
/// Stock items per warehouse (item ids `0..ITEMS`).
pub const ITEMS: i64 = 400;
/// Orders pre-loaded per warehouse.
pub const SEED_ORDERS: i64 = 20;
/// Sentinel item id used to trigger the ~1% "invalid item" rollback of the
/// TPC-C specification.
pub const INVALID_ITEM: i64 = 999_999;

/// Table ids, in schema order.
pub mod tables {
    /// WAREHOUSE(W_ID, NAME, W_YTD)
    pub const WAREHOUSE: usize = 0;
    /// CUSTOMER(C_W_ID, C_ID, C_CREDIT, C_BALANCE, C_YTD)
    pub const CUSTOMER: usize = 1;
    /// ORDERS(O_W_ID, O_ID, O_C_ID, O_CARRIER_ID)
    pub const ORDERS: usize = 2;
    /// ORDER_LINE(OL_SUPPLY_W_ID, OL_W_ID, OL_O_ID, OL_NUMBER, OL_I_ID, OL_QTY)
    pub const ORDER_LINE: usize = 3;
    /// STOCK(S_W_ID, S_I_ID, S_QTY, S_YTD)
    pub const STOCK: usize = 4;
    /// HISTORY(H_W_ID, H_ID, H_C_ID, H_AMOUNT)
    pub const HISTORY: usize = 5;
}

/// Builds and loads the TPC-C database: one warehouse per partition.
pub fn database(parts: u32) -> Database {
    let schemas = vec![
        Schema::new("WAREHOUSE", &["W_ID", "NAME", "W_YTD"], &[0], Some(0)),
        Schema::new(
            "CUSTOMER",
            &["C_W_ID", "C_ID", "C_CREDIT", "C_BALANCE", "C_YTD"],
            &[0, 1],
            Some(0),
        ),
        Schema::new("ORDERS", &["O_W_ID", "O_ID", "O_C_ID", "O_CARRIER_ID"], &[0, 1], Some(0)),
        Schema::new(
            "ORDER_LINE",
            &["OL_SUPPLY_W_ID", "OL_W_ID", "OL_O_ID", "OL_NUMBER", "OL_I_ID", "OL_QTY"],
            &[1, 2, 3],
            Some(0),
        ),
        Schema::new("STOCK", &["S_W_ID", "S_I_ID", "S_QTY", "S_YTD"], &[0, 1], Some(0)),
        Schema::new("HISTORY", &["H_W_ID", "H_ID", "H_C_ID", "H_AMOUNT"], &[0, 1], Some(0)),
    ];
    let mut db = Database::new(
        schemas,
        parts,
        &[
            ("ORDERS", 2),     // orders by customer (OrderStatus)
            ("ORDERS", 3),     // orders by carrier (Delivery: 0 = undelivered)
            ("ORDER_LINE", 2), // order lines by order id
        ],
    );
    let mut undo = UndoLog::new();
    for w in 0..i64::from(parts) {
        let p = db.partition_for_value(&Value::Int(w));
        db.insert(
            p,
            tables::WAREHOUSE,
            vec![Value::Int(w), Value::Str(format!("W{w}")), Value::Int(0)],
            &mut undo,
        )
        .expect("load warehouse");
        for c in 0..CUSTOMERS_PER_WAREHOUSE {
            let credit = if c % 10 == 0 { "BC" } else { "GC" };
            db.insert(
                p,
                tables::CUSTOMER,
                vec![
                    Value::Int(w),
                    Value::Int(c),
                    Value::Str(credit.into()),
                    Value::Int(1000),
                    Value::Int(0),
                ],
                &mut undo,
            )
            .expect("load customer");
        }
        for i in 0..ITEMS {
            db.insert(
                p,
                tables::STOCK,
                vec![Value::Int(w), Value::Int(i), Value::Int(10_000), Value::Int(0)],
                &mut undo,
            )
            .expect("load stock");
        }
        for o in 0..SEED_ORDERS {
            db.insert(
                p,
                tables::ORDERS,
                vec![
                    Value::Int(w),
                    Value::Int(o),
                    Value::Int(o % CUSTOMERS_PER_WAREHOUSE),
                    Value::Int(0),
                ],
                &mut undo,
            )
            .expect("load order");
            for ol in 0..3i64 {
                db.insert(
                    p,
                    tables::ORDER_LINE,
                    vec![
                        Value::Int(w),
                        Value::Int(w),
                        Value::Int(o),
                        Value::Int(ol),
                        Value::Int((o * 3 + ol) % ITEMS),
                        Value::Int(5),
                    ],
                    &mut undo,
                )
                .expect("load order line");
            }
        }
    }
    db
}

// ---------------------------------------------------------------------------
// Procedure H: Delivery(w_id, carrier_id)
// ---------------------------------------------------------------------------

fn delivery() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "Delivery".into(),
            queries: vec![
                // q0: all undelivered orders at this warehouse.
                QueryDef::new(
                    "GetUndelivered",
                    tables::ORDERS,
                    QueryOp::LookupBy { column: 3, param: 1 },
                    PartitionHint::Param(0),
                ),
                // q1: stamp the carrier on one order.
                QueryDef::new(
                    "UpdateOrderCarrier",
                    tables::ORDERS,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Set { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
                // q2: the order's lines (amount to charge).
                QueryDef::new(
                    "GetOrderLines",
                    tables::ORDER_LINE,
                    QueryOp::LookupBy { column: 2, param: 1 },
                    PartitionHint::Param(0),
                ),
                // q3: charge the customer.
                QueryDef::new(
                    "UpdateCustomerBalance",
                    tables::CUSTOMER,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Add { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| {
            Box::new(DeliveryRun {
                w_id: args[0].clone(),
                carrier: args[1].clone(),
                stage: 0,
                orders: Vec::new(),
                cursor: 0,
            })
        },
    }
}

/// Delivers up to this many orders per invocation (stands in for TPC-C's
/// one-per-district loop over 10 districts).
const DELIVERY_BATCH: usize = 10;

struct DeliveryRun {
    w_id: Value,
    carrier: Value,
    stage: u8,
    orders: Vec<(Value, Value)>, // (o_id, c_id)
    cursor: usize,
}

impl ProcInstance for DeliveryRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![self.w_id.clone(), Value::Int(0)])])
            }
            1 => {
                let rows = &results.unwrap()[0];
                self.orders = rows
                    .iter()
                    .take(DELIVERY_BATCH)
                    .map(|r| (r[1].clone(), r[2].clone()))
                    .collect();
                if self.orders.is_empty() {
                    return Step::Commit; // nothing to deliver
                }
                self.stage = 2;
                self.emit_order()
            }
            2 => {
                // GetOrderLines is always the last query of the previous
                // batch; charge its sum to the customer, then move on.
                let lines = results.unwrap().last().unwrap();
                let amount: i64 = lines.iter().map(|l| l[5].expect_int()).sum();
                let (_, c_id) = &self.orders[self.cursor];
                let mut invs = vec![QueryInvocation::new(
                    3,
                    vec![self.w_id.clone(), c_id.clone(), Value::Int(amount)],
                )];
                self.cursor += 1;
                if self.cursor < self.orders.len() {
                    if let Step::Queries(mut next) = self.emit_order() {
                        invs.append(&mut next);
                    }
                } else {
                    self.stage = 3;
                }
                Step::Queries(invs)
            }
            _ => Step::Commit,
        }
    }
}

impl DeliveryRun {
    fn emit_order(&self) -> Step {
        let (o_id, _) = &self.orders[self.cursor];
        Step::Queries(vec![
            QueryInvocation::new(1, vec![self.w_id.clone(), o_id.clone(), self.carrier.clone()]),
            QueryInvocation::new(2, vec![self.w_id.clone(), o_id.clone()]),
        ])
    }
}

// ---------------------------------------------------------------------------
// Procedure I: NewOrder(w_id, o_id, c_id, i_ids[], i_w_ids[], i_qtys[])
// ---------------------------------------------------------------------------

fn new_order() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "NewOrder".into(),
            queries: vec![
                QueryDef::new(
                    "GetWarehouse",
                    tables::WAREHOUSE,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "CheckStock",
                    tables::STOCK,
                    // (S_W_ID, S_I_ID) from (i_id, w_id)
                    QueryOp::GetByKey { key_params: vec![1, 0] },
                    PartitionHint::Param(1),
                ),
                QueryDef::new(
                    "InsertOrder",
                    tables::ORDERS,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertOrdLine",
                    tables::ORDER_LINE,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateStock",
                    tables::STOCK,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![
                            ColumnOp::Add { column: 2, param: 2 }, // qty -= n (param negative)
                            ColumnOp::Add { column: 3, param: 3 }, // ytd += n
                        ],
                    },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: true,
        },
        start: |args| {
            Box::new(NewOrderRun {
                w_id: args[0].clone(),
                o_id: args[1].clone(),
                c_id: args[2].clone(),
                i_ids: args[3].as_array().expect("i_ids").to_vec(),
                i_w_ids: args[4].as_array().expect("i_w_ids").to_vec(),
                i_qtys: args[5].as_array().expect("i_qtys").to_vec(),
                stage: 0,
            })
        },
    }
}

struct NewOrderRun {
    w_id: Value,
    o_id: Value,
    c_id: Value,
    i_ids: Vec<Value>,
    i_w_ids: Vec<Value>,
    i_qtys: Vec<Value>,
    stage: u8,
}

impl ProcInstance for NewOrderRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                // Batch 1 (Fig. 2): GetWarehouse + one CheckStock per item.
                self.stage = 1;
                let mut invs = vec![QueryInvocation::new(0, vec![self.w_id.clone()])];
                for (i_id, i_w) in self.i_ids.iter().zip(&self.i_w_ids) {
                    invs.push(QueryInvocation::new(1, vec![i_id.clone(), i_w.clone()]));
                }
                Step::Queries(invs)
            }
            1 => {
                let results = results.unwrap();
                // results[0] = warehouse; results[1..] = stock rows.
                for (i, stock) in results[1..].iter().enumerate() {
                    if stock.is_empty() {
                        return Step::Abort(format!("invalid item {}", self.i_ids[i]));
                    }
                }
                self.stage = 2;
                // Batch 2 (Fig. 2): InsertOrder + (InsertOrdLine, UpdateStock)*.
                let mut invs = vec![QueryInvocation::new(
                    2,
                    vec![self.w_id.clone(), self.o_id.clone(), self.c_id.clone(), Value::Int(0)],
                )];
                for (ol, ((i_id, i_w), qty)) in
                    self.i_ids.iter().zip(&self.i_w_ids).zip(&self.i_qtys).enumerate()
                {
                    invs.push(QueryInvocation::new(
                        3,
                        vec![
                            i_w.clone(),
                            self.w_id.clone(),
                            self.o_id.clone(),
                            Value::Int(ol as i64),
                            i_id.clone(),
                            qty.clone(),
                        ],
                    ));
                    invs.push(QueryInvocation::new(
                        4,
                        vec![i_w.clone(), i_id.clone(), Value::Int(-qty.expect_int()), qty.clone()],
                    ));
                }
                Step::Queries(invs)
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure J: OrderStatus(w_id, c_id)  — read-only, single-partition
// ---------------------------------------------------------------------------

fn order_status() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "OrderStatus".into(),
            queries: vec![
                QueryDef::new(
                    "GetCustomer",
                    tables::CUSTOMER,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetCustomerOrders",
                    tables::ORDERS,
                    QueryOp::LookupBy { column: 2, param: 1 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetOrderLines",
                    tables::ORDER_LINE,
                    QueryOp::LookupBy { column: 2, param: 1 },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: true,
            can_abort: false,
        },
        start: |args| {
            Box::new(OrderStatusRun { w_id: args[0].clone(), c_id: args[1].clone(), stage: 0 })
        },
    }
}

struct OrderStatusRun {
    w_id: Value,
    c_id: Value,
    stage: u8,
}

impl ProcInstance for OrderStatusRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![
                    QueryInvocation::new(0, vec![self.w_id.clone(), self.c_id.clone()]),
                    QueryInvocation::new(1, vec![self.w_id.clone(), self.c_id.clone()]),
                ])
            }
            1 => {
                let orders = &results.unwrap()[1];
                // Most recent order = max O_ID.
                let last = orders.iter().map(|r| r[1].expect_int()).max();
                match last {
                    None => Step::Commit, // customer has no orders
                    Some(o) => {
                        self.stage = 2;
                        Step::Queries(vec![QueryInvocation::new(
                            2,
                            vec![self.w_id.clone(), Value::Int(o)],
                        )])
                    }
                }
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure K: Payment(w_id, c_w_id, c_id, amount, h_id)
// ---------------------------------------------------------------------------

fn payment() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "Payment".into(),
            queries: vec![
                QueryDef::new(
                    "GetCustomer",
                    tables::CUSTOMER,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetWarehouse",
                    tables::WAREHOUSE,
                    QueryOp::GetByKey { key_params: vec![0] },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateWarehouseBalance",
                    tables::WAREHOUSE,
                    QueryOp::UpdateByKey {
                        key_params: vec![0],
                        sets: vec![ColumnOp::Add { column: 2, param: 1 }],
                    },
                    PartitionHint::Param(0),
                ),
                // Good-credit / bad-credit conditional branch (Fig. 10b).
                QueryDef::new(
                    "UpdateGCCustomer",
                    tables::CUSTOMER,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![ColumnOp::Add { column: 3, param: 2 }],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "UpdateBCCustomer",
                    tables::CUSTOMER,
                    QueryOp::UpdateByKey {
                        key_params: vec![0, 1],
                        sets: vec![
                            ColumnOp::Add { column: 3, param: 2 },
                            ColumnOp::Add { column: 4, param: 2 },
                        ],
                    },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "InsertHistory",
                    tables::HISTORY,
                    QueryOp::InsertRow,
                    PartitionHint::Param(0),
                ),
            ],
            read_only: false,
            can_abort: false,
        },
        start: |args| {
            Box::new(PaymentRun {
                w_id: args[0].clone(),
                c_w_id: args[1].clone(),
                c_id: args[2].clone(),
                amount: args[3].clone(),
                h_id: args[4].clone(),
                stage: 0,
            })
        },
    }
}

struct PaymentRun {
    w_id: Value,
    c_w_id: Value,
    c_id: Value,
    amount: Value,
    h_id: Value,
    stage: u8,
}

impl ProcInstance for PaymentRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![
                    QueryInvocation::new(0, vec![self.c_w_id.clone(), self.c_id.clone()]),
                    QueryInvocation::new(1, vec![self.w_id.clone()]),
                ])
            }
            1 => {
                let customer = &results.unwrap()[0];
                let Some(c) = customer.first() else {
                    return Step::Abort("unknown customer".into());
                };
                let bad_credit = c[2].as_str() == Some("BC");
                self.stage = 2;
                let cust_update = if bad_credit { 4 } else { 3 };
                Step::Queries(vec![
                    QueryInvocation::new(2, vec![self.w_id.clone(), self.amount.clone()]),
                    QueryInvocation::new(
                        cust_update,
                        vec![self.c_w_id.clone(), self.c_id.clone(), self.amount.clone()],
                    ),
                    QueryInvocation::new(
                        5,
                        vec![
                            self.w_id.clone(),
                            self.h_id.clone(),
                            self.c_id.clone(),
                            self.amount.clone(),
                        ],
                    ),
                ])
            }
            _ => Step::Commit,
        }
    }
}

// ---------------------------------------------------------------------------
// Procedure L: StockLevel(w_id, threshold)  — read-only, single-partition
// ---------------------------------------------------------------------------

fn stock_level() -> Procedure {
    Procedure {
        def: ProcDef {
            name: "StockLevel".into(),
            queries: vec![
                QueryDef::new(
                    "GetRecentOrders",
                    tables::ORDERS,
                    QueryOp::LookupBy { column: 3, param: 1 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "GetOrderLines",
                    tables::ORDER_LINE,
                    QueryOp::LookupBy { column: 2, param: 1 },
                    PartitionHint::Param(0),
                ),
                QueryDef::new(
                    "CheckStockLevel",
                    tables::STOCK,
                    QueryOp::GetByKey { key_params: vec![0, 1] },
                    PartitionHint::Param(0),
                ),
            ],
            read_only: true,
            can_abort: false,
        },
        start: |args| {
            Box::new(StockLevelRun { w_id: args[0].clone(), stage: 0, items: Vec::new() })
        },
    }
}

struct StockLevelRun {
    w_id: Value,
    stage: u8,
    items: Vec<i64>,
}

impl ProcInstance for StockLevelRun {
    fn next(&mut self, results: Option<&[Vec<Row>]>) -> Step {
        match self.stage {
            0 => {
                self.stage = 1;
                Step::Queries(vec![QueryInvocation::new(0, vec![self.w_id.clone(), Value::Int(0)])])
            }
            1 => {
                let orders = &results.unwrap()[0];
                let recent: Vec<i64> =
                    orders.iter().rev().take(5).map(|r| r[1].expect_int()).collect();
                if recent.is_empty() {
                    return Step::Commit;
                }
                self.stage = 2;
                Step::Queries(
                    recent
                        .iter()
                        .map(|&o| QueryInvocation::new(1, vec![self.w_id.clone(), Value::Int(o)]))
                        .collect(),
                )
            }
            2 => {
                let mut items: FxHashSet<i64> = FxHashSet::default();
                for lines in results.unwrap() {
                    for l in lines {
                        items.insert(l[4].expect_int());
                    }
                }
                self.items = items.into_iter().collect();
                self.items.sort_unstable();
                self.items.truncate(8);
                if self.items.is_empty() {
                    return Step::Commit;
                }
                self.stage = 3;
                Step::Queries(
                    self.items
                        .iter()
                        .map(|&i| QueryInvocation::new(2, vec![self.w_id.clone(), Value::Int(i)]))
                        .collect(),
                )
            }
            _ => Step::Commit,
        }
    }
}

/// Builds the TPC-C procedure registry (letters H–L of Table 4).
pub fn registry() -> ProcedureRegistry {
    ProcedureRegistry::new(vec![
        delivery(),     // H
        new_order(),    // I
        order_status(), // J
        payment(),      // K
        stock_level(),  // L
    ])
}

/// TPC-C request generator: 45% NewOrder, 43% Payment, 4% each of the rest.
pub struct Generator {
    parts: u32,
    seed: u64,
    rngs: FxHashMap<u64, SmallRng>,
    next_o_id: i64,
    next_h_id: i64,
    /// Fraction of NewOrder items supplied by a remote warehouse.
    pub remote_item_prob: f64,
    /// Fraction of Payments for a customer of another warehouse.
    pub remote_payment_prob: f64,
    /// Fraction of NewOrders carrying an invalid item (spec: 1%).
    pub invalid_item_prob: f64,
}

impl Generator {
    /// New generator with the spec-default remote/invalid probabilities.
    pub fn new(parts: u32, seed: u64) -> Self {
        Generator {
            parts,
            seed,
            rngs: FxHashMap::default(),
            next_o_id: SEED_ORDERS,
            next_h_id: 0,
            remote_item_prob: 0.02,
            remote_payment_prob: 0.15,
            invalid_item_prob: 0.01,
        }
    }

    /// An independent generator for one client stream: identical per-client
    /// RNG streams, with order/history ids drawn from a per-client block
    /// (stride 2^40) so concurrent streams never collide on inserts.
    pub fn for_client(parts: u32, seed: u64, client: u64) -> Self {
        let mut g = Generator::new(parts, seed);
        g.next_o_id = SEED_ORDERS + ((client as i64) << 40);
        g.next_h_id = (client as i64) << 40;
        g
    }

    /// Generates a NewOrder argument vector for warehouse `w`.
    pub fn new_order_args(&mut self, client: u64, w: i64) -> Vec<Value> {
        self.next_o_id += 1;
        let o_id = self.next_o_id;
        let parts = i64::from(self.parts);
        let seed = self.seed;
        let remote_prob = self.remote_item_prob;
        let invalid_prob = self.invalid_item_prob;
        let rng = self.rngs.entry(client).or_insert_with(|| seeded_rng(derive_seed(seed, client)));
        let n_items = rng.gen_range(3..=8);
        let invalid = invalid_prob > 0.0 && rng.gen_bool(invalid_prob);
        let mut i_ids = Vec::with_capacity(n_items);
        let mut i_w_ids = Vec::with_capacity(n_items);
        let mut i_qtys = Vec::with_capacity(n_items);
        for k in 0..n_items {
            let id =
                if invalid && k == n_items - 1 { INVALID_ITEM } else { rng.gen_range(0..ITEMS) };
            i_ids.push(Value::Int(id));
            let remote = parts > 1 && remote_prob > 0.0 && rng.gen_bool(remote_prob);
            let i_w = if remote {
                let mut other = rng.gen_range(0..parts);
                if other == w {
                    other = (other + 1) % parts;
                }
                other
            } else {
                w
            };
            i_w_ids.push(Value::Int(i_w));
            i_qtys.push(Value::Int(rng.gen_range(1..=10)));
        }
        vec![
            Value::Int(w),
            Value::Int(o_id),
            Value::Int(rng.gen_range(0..CUSTOMERS_PER_WAREHOUSE)),
            Value::Array(i_ids),
            Value::Array(i_w_ids),
            Value::Array(i_qtys),
        ]
    }
}

impl RequestGenerator for Generator {
    fn next_request(&mut self, client: u64) -> (ProcId, Vec<Value>) {
        let parts = i64::from(self.parts);
        let seed = self.seed;
        let (mix, w) = {
            let rng =
                self.rngs.entry(client).or_insert_with(|| seeded_rng(derive_seed(seed, client)));
            (rng.gen_range(0..100u32), rng.gen_range(0..parts))
        };
        match mix {
            0..=44 => (1, self.new_order_args(client, w)),
            45..=87 => {
                self.next_h_id += 1;
                let h_id = self.next_h_id;
                let remote_prob = self.remote_payment_prob;
                let rng = self.rngs.get_mut(&client).unwrap();
                let remote = parts > 1 && remote_prob > 0.0 && rng.gen_bool(remote_prob);
                let c_w = if remote {
                    let mut other = rng.gen_range(0..parts);
                    if other == w {
                        other = (other + 1) % parts;
                    }
                    other
                } else {
                    w
                };
                (
                    3, // Payment
                    vec![
                        Value::Int(w),
                        Value::Int(c_w),
                        Value::Int(rng.gen_range(0..CUSTOMERS_PER_WAREHOUSE)),
                        Value::Int(rng.gen_range(1..500)),
                        Value::Int(h_id),
                    ],
                )
            }
            88..=91 => {
                let rng = self.rngs.get_mut(&client).unwrap();
                (
                    2, // OrderStatus
                    vec![Value::Int(w), Value::Int(rng.gen_range(0..CUSTOMERS_PER_WAREHOUSE))],
                )
            }
            92..=95 => (0, vec![Value::Int(w), Value::Int(1)]), // Delivery
            _ => (4, vec![Value::Int(w), Value::Int(50)]),      // StockLevel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::run_offline;

    #[test]
    fn loads_expected_rows() {
        let db = database(2);
        assert_eq!(db.total_rows(tables::WAREHOUSE), 2);
        assert_eq!(db.total_rows(tables::CUSTOMER), 600);
        assert_eq!(db.total_rows(tables::STOCK), 800);
        assert_eq!(db.total_rows(tables::ORDERS), 40);
    }

    #[test]
    fn new_order_local_is_single_partition() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let args = vec![
            Value::Int(0),
            Value::Int(1000),
            Value::Int(5),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Array(vec![Value::Int(0), Value::Int(0)]),
            Value::Array(vec![Value::Int(3), Value::Int(4)]),
        ];
        let out = run_offline(&mut db, &reg, &cat, 1, &args, true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
        // Order + lines + stock effects landed.
        assert!(db.get(0, tables::ORDERS, &[Value::Int(0), Value::Int(1000)]).is_some());
        assert_eq!(
            db.get(0, tables::STOCK, &[Value::Int(0), Value::Int(1)]).unwrap()[2],
            Value::Int(10_000 - 3)
        );
    }

    #[test]
    fn new_order_remote_item_is_distributed() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let args = vec![
            Value::Int(0),
            Value::Int(1001),
            Value::Int(5),
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Array(vec![Value::Int(0), Value::Int(1)]),
            Value::Array(vec![Value::Int(1), Value::Int(1)]),
        ];
        let out = run_offline(&mut db, &reg, &cat, 1, &args, true).unwrap();
        assert!(out.committed);
        assert_eq!(out.touched.len(), 2);
        // Remote order line stored at the supplying warehouse's partition.
        assert!(db
            .get(1, tables::ORDER_LINE, &[Value::Int(0), Value::Int(1001), Value::Int(1)])
            .is_some());
    }

    #[test]
    fn new_order_invalid_item_aborts_and_rolls_back() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let args = vec![
            Value::Int(0),
            Value::Int(1002),
            Value::Int(5),
            Value::Array(vec![Value::Int(1), Value::Int(INVALID_ITEM)]),
            Value::Array(vec![Value::Int(0), Value::Int(0)]),
            Value::Array(vec![Value::Int(1), Value::Int(1)]),
        ];
        let out = run_offline(&mut db, &reg, &cat, 1, &args, true).unwrap();
        assert!(!out.committed);
        assert!(db.get(0, tables::ORDERS, &[Value::Int(0), Value::Int(1002)]).is_none());
    }

    #[test]
    fn payment_branches_on_credit() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        // Customer 0 is BC (c % 10 == 0), customer 1 is GC.
        for (c, expected_query) in [(0i64, "UpdateBCCustomer"), (1i64, "UpdateGCCustomer")] {
            let args = vec![
                Value::Int(0),
                Value::Int(0),
                Value::Int(c),
                Value::Int(100),
                Value::Int(9000 + c),
            ];
            let out = run_offline(&mut db, &reg, &cat, 3, &args, true).unwrap();
            assert!(out.committed);
            let names: Vec<String> = out
                .record
                .queries
                .iter()
                .map(|qr| cat.proc(3).query(qr.query).name.clone())
                .collect();
            assert!(names.iter().any(|n| n == expected_query), "customer {c}: {names:?}");
        }
    }

    #[test]
    fn payment_remote_customer_is_distributed() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let args =
            vec![Value::Int(0), Value::Int(1), Value::Int(7), Value::Int(100), Value::Int(5000)];
        let out = run_offline(&mut db, &reg, &cat, 3, &args, true).unwrap();
        assert!(out.committed);
        assert_eq!(out.touched.len(), 2);
    }

    #[test]
    fn delivery_processes_seed_orders() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let out =
            run_offline(&mut db, &reg, &cat, 0, &[Value::Int(0), Value::Int(7)], true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
        // At least DELIVERY_BATCH orders got a carrier.
        let delivered = db.lookup_by(0, tables::ORDERS, 3, &Value::Int(7));
        assert_eq!(delivered.len(), DELIVERY_BATCH);
        // Long transaction: 1 + batch*(2 queries) + batch charge queries.
        assert!(out.record.queries.len() > 20, "{}", out.record.queries.len());
    }

    #[test]
    fn order_status_reads_last_order() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let out =
            run_offline(&mut db, &reg, &cat, 2, &[Value::Int(0), Value::Int(3)], true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
        assert_eq!(out.record.queries.len(), 3);
    }

    #[test]
    fn stock_level_is_read_only_single_partition() {
        let mut db = database(2);
        let reg = registry();
        let cat = reg.catalog();
        let before = db.total_rows(tables::STOCK);
        let out =
            run_offline(&mut db, &reg, &cat, 4, &[Value::Int(1), Value::Int(50)], true).unwrap();
        assert!(out.committed);
        assert!(out.touched.is_single());
        assert_eq!(db.total_rows(tables::STOCK), before);
    }

    #[test]
    fn generator_mix_and_determinism() {
        let mut a = Generator::new(4, 3);
        let mut b = Generator::new(4, 3);
        let mut counts = [0u32; 5];
        for i in 0..1000 {
            let (p, args) = a.next_request(i % 16);
            assert_eq!((p, args.clone()), b.next_request(i % 16));
            counts[p as usize] += 1;
        }
        assert!(counts[1] > 350, "NewOrder should dominate: {counts:?}");
        assert!(counts[3] > 330, "Payment close behind: {counts:?}");
        assert!(counts[0] > 0 && counts[2] > 0 && counts[4] > 0);
    }
}
