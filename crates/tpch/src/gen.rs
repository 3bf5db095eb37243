//! Miniature native TPC-H-like data generator.
//!
//! Generates small, distribution-faithful samples of the `lineitem` /
//! `orders` columns for exercising the *native* operators (`ccp-engine`'s
//! `ops`) in examples and integration tests. Not a dbgen replacement: the
//! simulated Figure 11 harness uses [`crate::queries`] instead.

use ccp_storage::gen as sgen;
use ccp_storage::{Column, DictColumn, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scaled-down `lineitem` with the columns the example queries need.
///
/// * `L_ORDERKEY` — foreign key into `orders_sample` (dense `1..=orders`).
/// * `L_QUANTITY` — uniform `1..=50` (per spec).
/// * `L_EXTENDEDPRICE` — wide-domain prices (≈ `rows/2` distinct values,
///   mirroring the real column's high NDV).
/// * `L_DISCOUNT` — uniform `0..=10` (percent, per spec).
///
/// Every column is drawn into `draws` (its contents are replaced), so a
/// caller building more columns can lend one row-sized buffer to all.
pub fn lineitem_sample(rows: usize, orders: usize, seed: u64, draws: &mut Vec<i64>) -> Table {
    assert!(rows > 0 && orders > 0, "sample needs rows and orders");
    let mut rng = StdRng::seed_from_u64(seed);
    let price_domain = (rows as i64 / 2).max(10);
    let mut t = Table::new("lineitem");
    // One column at a time: draw it into `draws`, encode it. The draws
    // happen in this order, column after column.
    for (name, lo, hi) in [
        ("L_ORDERKEY", 1, orders as i64),
        ("L_QUANTITY", 1, 50),
        ("L_EXTENDEDPRICE", 90_000, 90_000 + price_domain - 1),
        ("L_DISCOUNT", 0, 10),
        // Return flag A/N/R and line status F/O, encoded as small
        // integers (0..3 and 0..2) with the spec's rough proportions.
        ("L_RETURNFLAG", 0, 2),
        ("L_LINESTATUS", 0, 1),
    ] {
        draws.clear();
        draws.extend((0..rows).map(|_| rng.gen_range(lo..=hi)));
        t.add_column(name, Column::Int(DictColumn::build(draws)));
    }
    t
}

/// A scaled-down `orders` table: `O_ORDERKEY` is a shuffled dense primary
/// key `1..=rows`.
pub(crate) fn orders_sample(rows: usize, seed: u64) -> Table {
    let keys = sgen::primary_keys(rows, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
    let totalprice: Vec<i64> = (0..rows).map(|_| rng.gen_range(1_000..500_000)).collect();
    let mut t = Table::new("orders");
    t.add_column("O_ORDERKEY", Column::Int(DictColumn::build(&keys)));
    t.add_column("O_TOTALPRICE", Column::Int(DictColumn::build(&totalprice)));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineitem_has_spec_distributions() {
        let t = lineitem_sample(10_000, 1_000, 7, &mut Vec::new());
        assert_eq!(t.row_count(), 10_000);
        assert_eq!(t.column_count(), 6);
        let Column::Int(q) = t.column("L_QUANTITY").unwrap() else {
            panic!()
        };
        // Quantity domain is 1..=50.
        assert!(q.dict().len() <= 50);
        for i in 0..100 {
            let v = *q.value_at(i);
            assert!((1..=50).contains(&v));
        }
        // Extended price has a wide domain.
        let Column::Int(p) = t.column("L_EXTENDEDPRICE").unwrap() else {
            panic!()
        };
        assert!(p.dict().len() > 1_000);
    }

    /// Draws every column before encoding any, the way the generator
    /// used to, with the half-open ranges it used to draw from.
    fn lineitem_drawn_first(
        rows: usize,
        orders: usize,
        seed: u64,
    ) -> Vec<(&'static str, Vec<i64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let orderkey: Vec<i64> = (0..rows)
            .map(|_| rng.gen_range(1..=orders as i64))
            .collect();
        let quantity: Vec<i64> = (0..rows).map(|_| rng.gen_range(1..=50)).collect();
        let price_domain = (rows as i64 / 2).max(10);
        let extendedprice: Vec<i64> = (0..rows)
            .map(|_| rng.gen_range(90_000..90_000 + price_domain))
            .collect();
        let discount: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..=10)).collect();
        let returnflag: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..3)).collect();
        let linestatus: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..2)).collect();
        vec![
            ("L_ORDERKEY", orderkey),
            ("L_QUANTITY", quantity),
            ("L_EXTENDEDPRICE", extendedprice),
            ("L_DISCOUNT", discount),
            ("L_RETURNFLAG", returnflag),
            ("L_LINESTATUS", linestatus),
        ]
    }

    #[test]
    fn column_at_a_time_draws_the_same_columns() {
        let t = lineitem_sample(10_000, 1_000, 7, &mut Vec::new());
        for (name, values) in lineitem_drawn_first(10_000, 1_000, 7) {
            let Column::Int(col) = t.column(name).unwrap() else {
                panic!("{name} is an integer column")
            };
            let expected = DictColumn::build(&values);
            assert_eq!(col.dict(), expected.dict(), "{name}");
            assert_eq!(col.codes(), expected.codes(), "{name}");
        }
    }

    #[test]
    fn orders_keys_are_dense_primary_keys() {
        let t = orders_sample(1_000, 3);
        let Column::Int(k) = t.column("O_ORDERKEY").unwrap() else {
            panic!()
        };
        assert_eq!(k.dict().len(), 1_000); // all distinct
                                           // The dictionary is the sorted key set 1..=1000.
        assert_eq!(*k.dict().decode(0), 1);
        assert_eq!(*k.dict().decode(999), 1_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = lineitem_sample(100, 10, 1, &mut Vec::new());
        let b = lineitem_sample(100, 10, 1, &mut Vec::new());
        let Column::Int(ca) = a.column("L_EXTENDEDPRICE").unwrap() else {
            panic!()
        };
        let Column::Int(cb) = b.column("L_EXTENDEDPRICE").unwrap() else {
            panic!()
        };
        for i in 0..100 {
            assert_eq!(ca.value_at(i), cb.value_at(i));
        }
    }
}
