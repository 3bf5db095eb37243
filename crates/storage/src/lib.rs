//! # ccp-storage
//!
//! The in-memory column-store substrate beneath the execution engine,
//! implementing the data structures the paper's Section II describes as the
//! cache-relevant core of SAP HANA's engine:
//!
//! * **Order-preserving dictionaries** ([`dict`]) — every column stores
//!   small integer *codes* instead of values; because the dictionary is
//!   sorted, range predicates can be evaluated entirely on compressed data.
//! * **Bit-packed code vectors** ([`bitpack`]) — codes are packed into
//!   ⌈log₂ |dict|⌉ bits each (the paper's 10⁶-value column packs into
//!   20 bits) and read by sequential operators through one block decoder,
//!   64 codes per width-specialised step.
//! * **Code-domain accumulators** ([`accumulator`]) — one aggregation cell
//!   per group code, what the native aggregation folds into per worker.
//! * **Aggregation hash tables** ([`hashtable`]) — the paper's
//!   probe-per-row open-addressing table; the native operators hand their
//!   result out in one.
//! * **Join bit vectors** ([`bitvec`]) — the compact primary-key
//!   representation of the OLAP foreign-key join.
//! * **Inverted indexes** ([`invindex`]) — code → row-id postings used by
//!   the OLTP point query.
//! * **Column tables and generators** ([`mod@column`], [`table`], [`gen`]) —
//!   the glue plus the paper's exact data-set distributions.

pub mod accumulator;
pub mod bitpack;
pub mod bitvec;
pub mod column;
pub mod dict;
pub mod gen;
pub mod hashtable;
pub mod invindex;
pub mod table;

pub use accumulator::CodeAccumulator;
pub use bitpack::PackedCodeVector;
pub use bitvec::BitVec;
pub use column::DictColumn;
pub use dict::Dictionary;
pub use hashtable::{AggHashTable, Aggregate};
pub use invindex::InvertedIndex;
pub use table::{Column, Table};
