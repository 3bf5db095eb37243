//! # ccp-tpch
//!
//! TPC-H at scale factor 100, modeled for cache-behaviour reproduction
//! (paper Section VI-D / Figure 11).
//!
//! A full SQL engine is out of scope for this reproduction; what Figure 11
//! needs is each TPC-H query's *cache and bandwidth footprint*: how many
//! bytes it streams, which dictionaries it decompresses (and their sizes),
//! how many groups its aggregations produce, and how large the bit vectors
//! of its foreign-key joins are. All of that is derivable from the TPC-H
//! specification's data distributions at SF 100 and is encoded here:
//!
//! * `schema` — table row counts and per-column NDV/dictionary-size
//!   model at SF 100 (the paper itself confirms the key number: the
//!   `L_EXTENDEDPRICE` dictionary is ≈ 29 MiB).
//! * `queries` — the 22 queries expressed as phase sequences (scan /
//!   join / aggregate, [`ccp_engine::Plan`]s) with a short per-query
//!   rationale, and [`build_query`], their composite of operator twins.
//! * [`gen`] — a miniature native TPC-H-like data generator for examples
//!   and tests of the native operators.

mod exec;
pub mod gen;
mod queries;
mod schema;

pub use exec::{plans, q1_pricing_summary, q6_forecast_revenue, sample_database, Q1Row};
pub use queries::{build_query, query_ids};
