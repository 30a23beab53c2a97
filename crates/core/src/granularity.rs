//! The three operand granularities of paper §3.

use std::fmt;

/// The unit of data a scheduling decision is based on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// §3.1 — enable an instruction only when its source operand(s) have
    /// been completely computed. Coarsest; no pipelining.
    Relation,
    /// §3.2 — enable as soon as at least one page of each operand exists.
    /// The paper's winner.
    Page,
    /// §3.3 — enable as soon as one tuple of each operand exists. Enabling
    /// behaves like page-level, but every tuple (pair) crosses the network
    /// as its own packet, multiplying arbitration traffic ~10×.
    Tuple,
}

impl Granularity {
    /// All three, for sweeps.
    pub const ALL: [Granularity; 3] =
        [Granularity::Relation, Granularity::Page, Granularity::Tuple];

    /// Network accounting for a work unit whose operand pages hold the given
    /// tuple counts and payload bytes: returns `(packets, payload_bytes)`
    /// *excluding* the per-packet overhead `c`, which the caller adds as
    /// `packets * c`.
    ///
    /// * Relation/Page level: each operand *page* crosses as one packet —
    ///   `(page_count, page_bytes_total)`.
    /// * Tuple level: a unary unit over a page of `n` tuples is `n` packets
    ///   of one tuple each; a binary (join) unit joining `n` outer tuples
    ///   against `m` inner tuples is `n·m` packets of two tuples each —
    ///   exactly the paper's `n·m·(200+c)` for 100-byte tuples.
    pub fn unit_packets(
        self,
        tuple_counts: &[usize],
        tuple_bytes: &[usize],
        page_count: usize,
        page_bytes_total: usize,
    ) -> (usize, usize) {
        match self {
            Granularity::Relation | Granularity::Page => (page_count, page_bytes_total),
            Granularity::Tuple => match (tuple_counts, tuple_bytes) {
                ([n], [w]) => (*n, n * w),
                ([n, m], [wn, wm]) => (n * m, n * m * (wn + wm)),
                _ => panic!(
                    "tuple-level accounting defined for 1 or 2 operands, got {}",
                    tuple_counts.len()
                ),
            },
        }
    }
}

impl fmt::Display for Granularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Granularity::Relation => "relation",
            Granularity::Page => "page",
            Granularity::Tuple => "tuple",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_level_is_one_packet_per_page() {
        let (p, b) = Granularity::Page.unit_packets(&[10, 10], &[100, 100], 2, 2032);
        assert_eq!((p, b), (2, 2032));
        let (p, b) = Granularity::Relation.unit_packets(&[10], &[100], 1, 1016);
        assert_eq!((p, b), (1, 1016));
    }

    #[test]
    fn tuple_level_join_matches_paper_formula() {
        // §3.3: n·m packets of 200 payload bytes for 100-byte tuples.
        let (p, b) = Granularity::Tuple.unit_packets(&[10, 10], &[100, 100], 2, 2032);
        assert_eq!(p, 100);
        assert_eq!(b, 100 * 200);
    }

    #[test]
    fn tuple_level_unary() {
        let (p, b) = Granularity::Tuple.unit_packets(&[10], &[100], 1, 1016);
        assert_eq!((p, b), (10, 1000));
    }

    #[test]
    fn display_names() {
        assert_eq!(Granularity::Relation.to_string(), "relation");
        assert_eq!(Granularity::Page.to_string(), "page");
        assert_eq!(Granularity::Tuple.to_string(), "tuple");
    }
}
