//! The closed-form arbitration-network bandwidth model of paper §3.3.
//!
//! For a nested-loops join of relations with `n` and `m` tuples of 100
//! bytes, with per-packet overhead `c`:
//!
//! * tuple-level granularity moves `n·m·(200 + c)` bytes,
//! * page-level granularity with 1000-byte pages moves
//!   `(n/10)·(m/10)·(2000 + c) = n·m·(20 + c/100)` bytes,
//!
//! i.e. the page approach needs about **1/10** the bandwidth. These
//! functions reproduce that arithmetic exactly (with ceiling division for
//! partial pages) and are cross-checked against the *measured* byte counters
//! of the simulated machine by the `sec_3_3` bench and the integration
//! tests.

/// Bytes through the arbitration network for a tuple-level nested-loops
/// join: one packet per tuple pair, each carrying both tuples plus `c`
/// overhead bytes.
pub fn tuple_level_join_bytes(n: usize, m: usize, tuple_bytes: usize, c: usize) -> u64 {
    (n as u64) * (m as u64) * (2 * tuple_bytes + c) as u64
}

/// Number of packets for the tuple-level join.
pub fn tuple_level_join_packets(n: usize, m: usize) -> u64 {
    n as u64 * m as u64
}

/// Bytes through the arbitration network for a page-level nested-loops
/// join: one packet per page pair, each carrying both pages plus `c`.
///
/// `tuples_per_page` is the page capacity; partial last pages are counted
/// as full packets (they occupy a packet regardless), matching the paper's
/// whole-page arithmetic.
pub fn page_level_join_bytes(
    n: usize,
    m: usize,
    tuple_bytes: usize,
    tuples_per_page: usize,
    c: usize,
) -> u64 {
    let pages_n = n.div_ceil(tuples_per_page) as u64;
    let pages_m = m.div_ceil(tuples_per_page) as u64;
    let page_payload = (tuples_per_page * tuple_bytes) as u64;
    pages_n * pages_m * (2 * page_payload + c as u64)
}

/// The bandwidth ratio tuple/page — the paper's headline "10×" (for
/// 100-byte tuples, 10-tuple pages, and negligible `c`).
pub fn tuple_over_page_ratio(
    n: usize,
    m: usize,
    tuple_bytes: usize,
    tuples_per_page: usize,
    c: usize,
) -> f64 {
    tuple_level_join_bytes(n, m, tuple_bytes, c) as f64
        / page_level_join_bytes(n, m, tuple_bytes, tuples_per_page, c) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_exact() {
        // n = m = 1000 tuples of 100 bytes, 10-tuple pages, c = 0:
        // tuple level: 10^6 · 200 = 2·10^8
        // page level:  100·100 · 2000 = 2·10^7  → exactly 10×.
        let n = 1000;
        assert_eq!(tuple_level_join_bytes(n, n, 100, 0), 200_000_000);
        assert_eq!(page_level_join_bytes(n, n, 100, 10, 0), 20_000_000);
        let r = tuple_over_page_ratio(n, n, 100, 10, 0);
        assert!((r - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_shifts_the_ratio_exactly_as_in_the_paper() {
        // §3.3: tuple = n·m·(200+c), page = n·m·(20 + c/100).
        let (n, c) = (1000, 50);
        let tuple = tuple_level_join_bytes(n, n, 100, c) as f64;
        let page = page_level_join_bytes(n, n, 100, 10, c) as f64;
        let nm = (n * n) as f64;
        assert!((tuple / nm - 250.0).abs() < 1e-9);
        assert!((page / nm - 20.5).abs() < 1e-9);
    }

    #[test]
    fn partial_pages_round_up() {
        // 11 tuples at 10/page = 2 pages, each paired with the one page of
        // 10: two packets of two 1 000-byte pages.
        assert_eq!(page_level_join_bytes(11, 10, 100, 10, 0), 4_000);
        assert_eq!(page_level_join_bytes(10, 10, 100, 10, 0), 2_000);
        assert_eq!(tuple_level_join_packets(11, 10), 110);
    }

    #[test]
    fn bigger_pages_cut_another_order_of_magnitude() {
        // §3.3: "increasing the page size to 10,000 bytes will obviously
        // decrease the arbitration network bandwidth requirements by
        // another order of magnitude".
        let n = 10_000;
        let small = page_level_join_bytes(n, n, 100, 10, 0);
        let big = page_level_join_bytes(n, n, 100, 100, 0);
        let ratio = small as f64 / big as f64;
        assert!((ratio - 10.0).abs() < 1e-9, "ratio {ratio}");
    }
}
