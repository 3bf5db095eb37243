//! TPC-H SF 100 size model: the row counts and dictionary sizes the
//! query profiles are built from.
//!
//! Row counts follow the TPC-H specification (`SF × base cardinality`);
//! dictionary sizes use the reproduction's 8-bytes-per-entry integer
//! dictionary model over the column's number of distinct values (NDV).
//! NDVs come from the spec's value ranges (e.g. `L_QUANTITY ∈ 1..=50`,
//! prices are `retailprice`-derived with ≈ 3.7 M distinct values at any
//! scale — which yields the ≈ 29 MiB `L_EXTENDEDPRICE` dictionary the
//! paper reports).

/// Rows per table at SF 100.
pub(crate) mod rows {
    /// `lineitem`: 6,000,000 × SF.
    pub(crate) const LINEITEM: u64 = 600_000_000;
    /// `orders`: 1,500,000 × SF.
    pub(crate) const ORDERS: u64 = 150_000_000;
    /// `partsupp`: 800,000 × SF.
    pub(crate) const PARTSUPP: u64 = 80_000_000;
    /// `part`: 200,000 × SF.
    pub(crate) const PART: u64 = 20_000_000;
    /// `customer`: 150,000 × SF.
    pub(crate) const CUSTOMER: u64 = 15_000_000;
    /// `supplier`: 10,000 × SF.
    pub(crate) const SUPPLIER: u64 = 1_000_000;
}

/// Dictionary sizes (bytes) of the columns the 22 queries decompress.
pub(crate) mod dict {
    /// `L_EXTENDEDPRICE`: ≈ 3.8 M distinct price values → ≈ 29 MiB — the
    /// number the paper quotes for why TPC-H Q1 benefits from partitioning.
    pub(crate) const L_EXTENDEDPRICE: u64 = 29 << 20;
    /// `L_QUANTITY`: 50 distinct values.
    pub(crate) const L_QUANTITY: u64 = 50 * 8;
    /// `PS_SUPPLYCOST`: ≈ 100 k distinct values.
    pub(crate) const PS_SUPPLYCOST: u64 = 100_000 * 8;
    /// `C_ACCTBAL`: ≈ 1.1 M distinct values → ≈ 9 MB.
    pub(crate) const C_ACCTBAL: u64 = 1_100_000 * 8;
    /// Small enumerated string columns (flags, priorities, modes, ...).
    pub(crate) const TINY: u64 = 64 * 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_counts_scale_from_spec() {
        // SF 100, the paper's scale factor.
        assert_eq!(rows::LINEITEM, 6_000_000 * 100);
        assert_eq!(rows::ORDERS, 1_500_000 * 100);
        assert_eq!(rows::SUPPLIER, 10_000 * 100);
    }

    #[test]
    fn extendedprice_dictionary_matches_paper() {
        // The paper (Section VI-D): "the column L_EXTENDEDPRICE with a
        // dictionary size of approximately 29 MiB".
        assert_eq!(dict::L_EXTENDEDPRICE, 30_408_704);
    }
}
