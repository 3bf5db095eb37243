//! Code-domain aggregation: one accumulator cell per dictionary code.
//!
//! A grouping column's codes are a dense `0..dict.len()` —
//! [`DictColumn::build`](crate::DictColumn::build) is the only constructor,
//! so every code occurs in the column and `dict.len() ≤ rows` — which makes
//! the dictionary itself the perfect hash of the groups. The accumulator is
//! therefore a plain array indexed by group code: no hash, no key compare,
//! no probe sequence and no growth. At 16 bytes per code it is never larger
//! than the ≤ 50 %-load [`AggHashTable`](crate::AggHashTable) over the same
//! groups (24 bytes × at least two slots per group), and filling it with
//! the aggregate's identity costs no more than one pass over the input.
//!
//! What is folded is up to the caller. Because dictionaries preserve order,
//! the maximum value *code* of a group is the code of its maximum value, so
//! `Max`/`Min` fold codes and decode once per group; only `Sum` needs
//! decoded values, and `Count` needs no operand at all.

use crate::hashtable::Aggregate;

/// Running aggregate and row count of one group code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cell {
    acc: i64,
    count: u64,
}

/// Aggregation state for every code of one grouping domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeAccumulator {
    cells: Vec<Cell>,
    agg: Aggregate,
}

impl CodeAccumulator {
    /// An accumulator for group codes `0..domain`, no row folded yet.
    pub fn new(agg: Aggregate, domain: usize) -> Self {
        let identity = Cell {
            acc: match agg {
                Aggregate::Max => i64::MIN,
                Aggregate::Min => i64::MAX,
                Aggregate::Sum | Aggregate::Count => 0,
            },
            count: 0,
        };
        CodeAccumulator {
            cells: vec![identity; domain],
            agg,
        }
    }

    /// Folds `operands[i]` into group `groups[i]` for every `i`. Operands
    /// are whatever the caller aggregates over — value codes (`u32`) or
    /// decoded values (`i64`). A `Count` accumulator only counts the rows
    /// and never reads them, so its caller need not fill them in.
    ///
    /// # Panics
    /// Panics when the slices differ in length or a group code is outside
    /// the domain.
    pub fn fold<T: Copy + Into<i64>>(&mut self, groups: &[u32], operands: &[T]) {
        assert_eq!(groups.len(), operands.len(), "one operand per group code");
        // One loop per aggregate, so the fold is a constant inside it.
        match self.agg {
            Aggregate::Max => self.fold_with(groups, operands, i64::max),
            Aggregate::Min => self.fold_with(groups, operands, i64::min),
            Aggregate::Sum => self.fold_with(groups, operands, |acc, x| acc + x),
            Aggregate::Count => {
                let cells = self.cells.as_mut_slice();
                for &group in groups {
                    cells[group as usize].count += 1;
                }
            }
        }
    }

    #[inline(always)]
    fn fold_with<T: Copy + Into<i64>>(
        &mut self,
        groups: &[u32],
        operands: &[T],
        f: impl Fn(i64, i64) -> i64,
    ) {
        let cells = self.cells.as_mut_slice();
        for (&group, &x) in groups.iter().zip(operands) {
            let cell = &mut cells[group as usize];
            cell.acc = f(cell.acc, x.into());
            cell.count += 1;
        }
    }

    /// Merges `other`, an accumulator of the same aggregate over the same
    /// domain, into `self`.
    ///
    /// # Panics
    /// Panics when aggregate or domain differ.
    pub fn merge(&mut self, other: &CodeAccumulator) {
        assert_eq!(self.agg, other.agg, "cannot merge different aggregates");
        assert_eq!(self.cells.len(), other.cells.len(), "domains must match");
        for (cell, theirs) in self.cells.iter_mut().zip(&other.cells) {
            cell.acc = self.agg.combine(cell.acc, theirs.acc);
            cell.count += theirs.count;
        }
    }

    /// All of `partials` merged into the first of them; `None` when there
    /// is none.
    ///
    /// # Panics
    /// Panics when aggregates or domains differ.
    pub fn merged(partials: impl IntoIterator<Item = CodeAccumulator>) -> Option<CodeAccumulator> {
        partials.into_iter().reduce(|mut total, partial| {
            total.merge(&partial);
            total
        })
    }

    /// `(group code, aggregate, row count)` of every group that saw a row,
    /// in code order. The aggregate is in the domain of the operands that
    /// were folded (a value code where codes were folded); for `Count` it
    /// is the row count.
    pub fn groups(&self) -> impl Iterator<Item = (u32, i64, u64)> + '_ {
        let counting = self.agg == Aggregate::Count;
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, cell)| cell.count > 0)
            .map(move |(code, cell)| {
                let acc = if counting {
                    cell.count as i64
                } else {
                    cell.acc
                };
                (code as u32, acc, cell.count)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Aggregate; 4] = [
        Aggregate::Max,
        Aggregate::Min,
        Aggregate::Sum,
        Aggregate::Count,
    ];

    fn rows() -> (Vec<u32>, Vec<i64>) {
        let groups: Vec<u32> = (0..1_000u32).map(|i| (i * 7 + i / 13) % 11).collect();
        let values: Vec<i64> = (0..1_000i64).map(|i| (i * 37) % 201 - 100).collect();
        (groups, values)
    }

    fn one_pass(agg: Aggregate, domain: usize, groups: &[u32], values: &[i64]) -> CodeAccumulator {
        let mut acc = CodeAccumulator::new(agg, domain);
        acc.fold(groups, values);
        acc
    }

    #[test]
    fn folds_match_a_row_at_a_time_reference() {
        let (groups, values) = rows();
        for agg in ALL {
            let mut reference = std::collections::BTreeMap::<u32, (i64, u64)>::new();
            for (&g, &v) in groups.iter().zip(&values) {
                let first = if agg == Aggregate::Count { 1 } else { v };
                reference
                    .entry(g)
                    .and_modify(|(acc, count)| {
                        *acc = match agg {
                            Aggregate::Max => (*acc).max(v),
                            Aggregate::Min => (*acc).min(v),
                            Aggregate::Sum => *acc + v,
                            Aggregate::Count => *acc + 1,
                        };
                        *count += 1;
                    })
                    .or_insert((first, 1));
            }
            let got: Vec<_> = one_pass(agg, 11, &groups, &values).groups().collect();
            let want: Vec<_> = reference.into_iter().map(|(g, (a, c))| (g, a, c)).collect();
            assert_eq!(got, want, "{agg:?}");
        }
    }

    #[test]
    fn merge_of_overlapping_halves_equals_one_pass() {
        let (groups, values) = rows();
        for agg in ALL {
            // Both halves see all eleven groups.
            let (g_lo, g_hi) = groups.split_at(500);
            let (v_lo, v_hi) = values.split_at(500);
            let mut merged = one_pass(agg, 11, g_lo, v_lo);
            merged.merge(&one_pass(agg, 11, g_hi, v_hi));
            assert_eq!(merged, one_pass(agg, 11, &groups, &values), "{agg:?}");
        }
    }

    #[test]
    fn merge_of_disjoint_halves_equals_one_pass() {
        for agg in ALL {
            // Codes 0..4 only in the first half, 4..8 only in the second.
            let groups: Vec<u32> = (0..64u32).map(|i| i % 4 + 4 * (i / 32)).collect();
            let values: Vec<i64> = (0..64i64).map(|i| 50 - 3 * i).collect();
            let halves = [
                one_pass(agg, 8, &groups[..32], &values[..32]),
                one_pass(agg, 8, &groups[32..], &values[32..]),
            ];
            let merged = CodeAccumulator::merged(halves).expect("two halves");
            assert_eq!(merged, one_pass(agg, 8, &groups, &values), "{agg:?}");
            assert_eq!(merged.groups().count(), 8);
            assert_eq!(CodeAccumulator::merged([]), None);
        }
    }

    #[test]
    fn untouched_codes_do_not_appear() {
        for agg in ALL {
            let acc = one_pass(agg, 10, &[7, 2, 7], &[5, -1, 9]);
            let codes: Vec<u32> = acc.groups().map(|(code, _, _)| code).collect();
            assert_eq!(codes, [2, 7], "{agg:?}");
        }
        assert_eq!(CodeAccumulator::new(Aggregate::Max, 4).groups().count(), 0);
        assert_eq!(CodeAccumulator::new(Aggregate::Sum, 0).groups().count(), 0);
    }

    #[test]
    fn extremes_survive_max_and_min() {
        let values = [i64::MIN, 0, i64::MAX, -1];
        let max: Vec<_> = one_pass(Aggregate::Max, 1, &[0; 4], &values)
            .groups()
            .collect();
        let min: Vec<_> = one_pass(Aggregate::Min, 1, &[0; 4], &values)
            .groups()
            .collect();
        assert_eq!(max, [(0, i64::MAX, 4)]);
        assert_eq!(min, [(0, i64::MIN, 4)]);
        // A group whose only value is the identity still reports it.
        let only_min: Vec<_> = one_pass(Aggregate::Max, 1, &[0], &[i64::MIN])
            .groups()
            .collect();
        assert_eq!(only_min, [(0, i64::MIN, 1)]);
    }

    #[test]
    fn codes_and_values_fold_alike_and_count_ignores_operands() {
        let groups = [1u32, 0, 1, 1];
        let codes = [3u32, 9, 4, 1];
        let widened: Vec<i64> = codes.iter().map(|&c| i64::from(c)).collect();
        for agg in ALL {
            let mut by_code = CodeAccumulator::new(agg, 2);
            by_code.fold(&groups, &codes);
            assert_eq!(by_code, one_pass(agg, 2, &groups, &widened), "{agg:?}");
        }
        let counted: Vec<_> = one_pass(Aggregate::Count, 2, &groups, &[0; 4])
            .groups()
            .collect();
        assert_eq!(counted, [(0, 1, 1), (1, 3, 3)]);
    }

    #[test]
    #[should_panic]
    fn group_code_outside_the_domain_panics() {
        CodeAccumulator::new(Aggregate::Count, 4).fold(&[4], &[0u32]);
    }

    #[test]
    #[should_panic(expected = "domains must match")]
    fn merging_different_domains_panics() {
        let mut a = CodeAccumulator::new(Aggregate::Sum, 4);
        a.merge(&CodeAccumulator::new(Aggregate::Sum, 5));
    }
}
