//! The three OLTP benchmarks of the paper's evaluation (§6.1).
//!
//! * [`tatp`] — Telecom Application Transaction Processing: 7 procedures, 4
//!   always single-partition, 3 that open with a broadcast query on a
//!   non-partitioning column and then work at a single partition.
//! * [`tpcc`] — TPC-C (simplified to the paper's Fig. 2 shapes): 5
//!   procedures; the two hottest (NewOrder, Payment) vary between
//!   single-partition and distributed.
//! * [`auctionmark`] — AuctionMark: 10 procedures, buyer/seller
//!   cross-partition transactions, conditional branches, and the >175-query
//!   maintenance transaction CheckWinningBids for which the paper disables
//!   Houdini.
//!
//! Each benchmark exposes `database(num_partitions)`, `registry()` and a
//! [`engine::RequestGenerator`]; procedure letters follow Table 4.
//!
//! A stored procedure is a function returning an [`engine::Procedure`]: its
//! [`engine::ProcDef`] (queries built with [`engine::QueryDef::new`]) and a
//! `start` function from the input parameters to a running instance. A
//! procedure whose batches are fixed by its arguments starts an
//! [`engine::Linear`]; one that branches on what it read starts its own
//! `…Run` state machine, an [`engine::ProcInstance`]. `registry()` lists
//! the procedures in Table 4 order, which defines their ids.

pub mod auctionmark;
pub mod tatp;
pub mod tpcc;

use engine::{ProcedureRegistry, RequestGenerator};
use storage::Database;

/// Which benchmark to build — convenience for the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// TATP.
    Tatp,
    /// TPC-C.
    Tpcc,
    /// AuctionMark.
    AuctionMark,
}

impl Bench {
    /// All benchmarks in the paper's order.
    pub const ALL: [Bench; 3] = [Bench::Tatp, Bench::Tpcc, Bench::AuctionMark];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Tatp => "TATP",
            Bench::Tpcc => "TPC-C",
            Bench::AuctionMark => "AuctionMark",
        }
    }

    /// Builds and loads the benchmark database.
    pub fn database(self, num_partitions: u32) -> Database {
        match self {
            Bench::Tatp => tatp::database(num_partitions),
            Bench::Tpcc => tpcc::database(num_partitions),
            Bench::AuctionMark => auctionmark::database(num_partitions),
        }
    }

    /// Builds the stored-procedure registry.
    pub fn registry(self) -> ProcedureRegistry {
        match self {
            Bench::Tatp => tatp::registry(),
            Bench::Tpcc => tpcc::registry(),
            Bench::AuctionMark => auctionmark::registry(),
        }
    }

    /// Builds the shared request generator for a cluster of
    /// `num_partitions`: exactly client 0's split stream (per-client RNG
    /// streams already derive from `(seed, client)` internally, and the
    /// shared generator draws its unique-id blocks from client 0's range —
    /// the invariant `client_zero_split_stream_matches_shared_generator`
    /// pins). [`Bench::client_generator`] is the single construction path
    /// underneath.
    pub fn generator(self, num_partitions: u32, seed: u64) -> Box<dyn RequestGenerator + Send> {
        self.client_generator(num_partitions, seed, 0)
    }

    /// Builds the independent, `Send` request generator for one client
    /// stream — the one construction path every caller goes through
    /// (closed-loop `run_live` streams, open-loop submitters, trace
    /// collection via [`Bench::generator`]). Each client's RNG stream is
    /// derived from `(seed, client)`, so a split set of client generators
    /// issues the same per-client requests as the shared generator;
    /// benchmark-unique ids (order ids, call-forwarding start times, ...)
    /// come from per-client blocks so concurrent streams never collide.
    pub fn client_generator(
        self,
        num_partitions: u32,
        seed: u64,
        client: u64,
    ) -> Box<dyn RequestGenerator + Send> {
        match self {
            Bench::Tatp => Box::new(tatp::Generator::for_client(num_partitions, seed, client)),
            Bench::Tpcc => Box::new(tpcc::Generator::for_client(num_partitions, seed, client)),
            Bench::AuctionMark => {
                Box::new(auctionmark::Generator::for_client(num_partitions, seed, client))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct per-bench constructors (`Generator::new`) the shared
    /// path historically wrapped — the independent reference the
    /// delegation tests compare against (constructing through
    /// `Bench::generator` here would make them vacuous).
    fn direct_generators(parts: u32, seed: u64) -> Vec<Box<dyn RequestGenerator + Send>> {
        vec![
            Box::new(tatp::Generator::new(parts, seed)),
            Box::new(tpcc::Generator::new(parts, seed)),
            Box::new(auctionmark::Generator::new(parts, seed)),
        ]
    }

    #[test]
    fn client_zero_split_stream_matches_shared_generator() {
        // `Bench::generator` delegates to client 0's split stream; this
        // pin keeps the delegation honest against the direct per-bench
        // construction it claims to equal (same RNG derivation, same
        // unique-id block 0) — bit-for-bit over 200 requests.
        for (bench, mut direct) in Bench::ALL.into_iter().zip(direct_generators(4, 11)) {
            let mut split = bench.generator(4, 11);
            for i in 0..200 {
                assert_eq!(
                    direct.next_request(0),
                    split.next_request(0),
                    "{} request {i} diverged",
                    bench.name()
                );
            }
        }
    }

    #[test]
    fn registries_keep_table_4_order() {
        // Procedure ids index the catalog, the trained predictors and the
        // letters of Table 4 (`bench::experiments::proc_letter`: TATP from
        // A, TPC-C from H, AuctionMark from M), so registry order is
        // pinned name by name.
        let expected: [(Bench, &[&str]); 3] = [
            (
                Bench::Tatp,
                &[
                    "DeleteCallFwrd",   // A
                    "GetAccessData",    // B
                    "GetNewDest",       // C
                    "GetSubscriber",    // D
                    "InsertCallFwrd",   // E
                    "UpdateLocation",   // F
                    "UpdateSubscriber", // G
                ],
            ),
            (
                Bench::Tpcc,
                &[
                    "Delivery",    // H
                    "NewOrder",    // I
                    "OrderStatus", // J
                    "Payment",     // K
                    "StockLevel",  // L
                ],
            ),
            (
                Bench::AuctionMark,
                &[
                    "CheckWinningBids", // M
                    "GetItem",          // N
                    "GetUserInfo",      // O
                    "GetWatchedItems",  // P
                    "NewBid",           // Q
                    "NewComment",       // R
                    "NewItem",          // S
                    "NewPurchase",      // T
                    "PostAuction",      // U
                    "UpdateItem",       // V
                ],
            ),
        ];
        for (bench, names) in expected {
            let registry = bench.registry();
            let got: Vec<&str> =
                (0..registry.len()).map(|id| registry.get(id as u32).def.name.as_str()).collect();
            assert_eq!(got, names, "{} registry order", bench.name());
        }
    }

    #[test]
    fn every_lookup_is_indexed() {
        // An unindexed `LookupBy` scans and sorts the whole partition slice
        // per call, so every shipped lookup must hit a secondary index its
        // bench's `database()` declares.
        for bench in Bench::ALL {
            let db = bench.database(2);
            let catalog = bench.registry().catalog();
            let mut lookups = 0;
            for id in 0..catalog.len() {
                let proc = catalog.proc(id as u32);
                for q in &proc.queries {
                    if let engine::QueryOp::LookupBy { column, .. } = q.op {
                        lookups += 1;
                        assert!(
                            db.table(0, q.table).is_indexed(column),
                            "{} {}.{}: {}.{} has no secondary index",
                            bench.name(),
                            proc.name,
                            q.name,
                            db.schema(q.table).name,
                            db.schema(q.table).columns[column].name,
                        );
                    }
                }
            }
            assert!(lookups > 0, "{} ships no lookup", bench.name());
        }
    }

    #[test]
    fn split_streams_issue_same_procedures_as_shared() {
        // Multi-client: per-client procedure/argument streams match the
        // directly-constructed shared generator except for globally-unique
        // insert ids, which come from disjoint per-client blocks.
        let clients = 4u64;
        for (bench, mut shared) in Bench::ALL.into_iter().zip(direct_generators(2, 5)) {
            let mut splits: Vec<_> =
                (0..clients).map(|c| bench.client_generator(2, 5, c)).collect();
            for i in 0..120u64 {
                let c = i % clients;
                let (proc_a, _) = shared.next_request(c);
                let (proc_b, _) = splits[c as usize].next_request(c);
                assert_eq!(proc_a, proc_b, "{} client {c} step {i}", bench.name());
            }
        }
    }
}
