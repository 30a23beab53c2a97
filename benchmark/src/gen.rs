//! Seeded request-stream generation. `--seed` reaches the program only
//! through what these functions produce: the database itself always
//! comes from `DatabaseSpec::scaled`, so the benchmark can regenerate the
//! same catalog locally for its oracle.

/// The splitmix64 output function: one additive step plus the two-round
/// xor-multiply finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One connection's private draw stream. The seed and the connection id
/// are each avalanched into the stream base (as `loadgen.rs` does for its
/// clients), so connections are independently seeded generators rather
/// than shifted windows of one sequence.
#[derive(Debug, Clone)]
pub struct Stream {
    base: u64,
    seq: u64,
}

impl Stream {
    /// The stream of connection `conn` under `seed`.
    pub fn new(seed: u64, conn: usize) -> Stream {
        Stream {
            base: splitmix64(splitmix64(seed) ^ splitmix64(!(conn as u64))),
            seq: 0,
        }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let z = self
            .base
            .wrapping_add(self.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.seq += 1;
        splitmix64(z)
    }
}

/// How often each of `n ≥ 1` ranks appears in a list of `ops` draws that
/// follows Zipf(s) exactly: rank k gets `ops`·(1/(k+1)^s)/H, rounded by
/// largest remainder so the counts sum to `ops`.
pub fn zipf_counts(n: usize, s: f64, ops: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n.max(1)).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * ops as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| *e as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let rem = |k: usize| exact[k] - counts[k] as f64;
        rem(b).partial_cmp(&rem(a)).expect("finite").then(a.cmp(&b))
    });
    let short = ops - counts.iter().sum::<usize>();
    for &k in by_remainder.iter().cycle().take(short) {
        counts[k] += 1;
    }
    counts
}

/// The op list of one connection of `serve-read`: `ops` ranks into the
/// read pool, each rank as often as zipf(1.0) says ([`zipf_counts`]), in
/// a seeded order (Fisher–Yates over the connection's stream). Every
/// seed and connection plays the same multiset of requests — the same
/// work — and only the order, hence what the plan cache holds when,
/// differs. Rounds replay the list, so work per cycle of rounds is
/// constant.
pub fn read_ranks(seed: u64, conn: usize, pool: usize, ops: usize) -> Vec<u32> {
    let mut ranks: Vec<u32> = zipf_counts(pool, 1.0, ops)
        .iter()
        .enumerate()
        .flat_map(|(rank, &count)| std::iter::repeat_n(rank as u32, count))
        .collect();
    let mut stream = Stream::new(seed, conn);
    for i in (1..ranks.len()).rev() {
        ranks.swap(i, (stream.next_u64() % (i as u64 + 1)) as usize);
    }
    ranks
}

/// Relations the `serve-read` pool scans: five relations of identical
/// cardinality (weight 2 in `DatabaseSpec`), so every op is the same
/// amount of kernel work whatever rank the zipf draw picks.
pub const READ_POOL_RELATIONS: [&str; 5] = ["r08", "r09", "r10", "r11", "r12"];

/// The `rank`-th text of the `serve-read` pool: a `restrict→project`
/// keeping a 100-wide window of the 1000-value `val` domain (≈ 10 %
/// selectivity). Every rank is a distinct text, hence a distinct plan.
pub fn read_text(rank: usize) -> String {
    let rel = READ_POOL_RELATIONS[rank % READ_POOL_RELATIONS.len()];
    let lo = 7 * (rank / READ_POOL_RELATIONS.len());
    let hi = lo + 100;
    format!("(project (restrict (scan {rel}) (and (>= val {lo}) (< val {hi}))) (key val))")
}

/// Which source keys a write cycle may append. A cycle appends the `r00`
/// tuple with key `k` into its target and deletes it again, so `k` must
/// exist in `r00` and in no target (or the delete would also remove an
/// original tuple): keys in `[largest target cardinality, |r00|)`. The
/// range is split into disjoint per-connection halves, so two
/// connections never append or delete the same key whichever relation
/// they target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteKeys {
    /// First usable key (inclusive).
    pub lo: u64,
    /// End of the usable keys (exclusive).
    pub hi: u64,
    /// Connections sharing the range.
    pub conns: u64,
}

impl WriteKeys {
    /// Keys usable against targets of at most `max_target` tuples, with
    /// `source` tuples in `r00`, split between `conns` connections.
    pub fn new(max_target: u64, source: u64, conns: u64) -> WriteKeys {
        assert!(
            max_target + conns <= source,
            "no free keys: target has {max_target} tuples, source {source}"
        );
        WriteKeys {
            lo: max_target,
            hi: source,
            conns,
        }
    }

    /// Keys each connection owns.
    pub fn per_conn(&self) -> u64 {
        (self.hi - self.lo) / self.conns
    }

    /// The key connection `conn` appends and deletes in its `cycle`-th
    /// write cycle (seed-rotated within the connection's own slice).
    pub fn key(&self, seed: u64, conn: usize, cycle: usize) -> u64 {
        let span = self.per_conn();
        let offset = (splitmix64(seed) % span + cycle as u64) % span;
        self.lo + conn as u64 * span + offset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_deterministic_and_independent_across_connections() {
        let draw = |seed, conn| -> Vec<u64> {
            let mut s = Stream::new(seed, conn);
            (0..64).map(|_| s.next_u64()).collect()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
        // Not a shifted window of the neighbour's stream — the signature
        // of deriving every connection from one sequence.
        let (a, b) = (draw(7, 0), draw(7, 1));
        for shift in 1..8 {
            assert!(a[shift..] != b[..64 - shift]);
            assert!(b[shift..] != a[..64 - shift]);
        }
        // Seed 0 / conn 0 must not collapse onto seed 0 / conn 1.
        assert_ne!(draw(0, 0), draw(0, 1));
    }

    #[test]
    fn zipf_counts_are_skewed_cover_the_pool_and_sum_to_the_ops() {
        let counts = zipf_counts(256, 1.0, 1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // Harmonic weights: rank 0 is 1/H(256) ≈ 16 % of the list, rank 1
        // half of that.
        assert_eq!(counts[0], 163);
        assert_eq!(counts[1], 82);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        // The tail is really visited: far more distinct ranks than the
        // 128-entry plan cache holds.
        let distinct = counts.iter().filter(|&&c| c > 0).count();
        assert!(distinct > 200, "{distinct} distinct ranks");
        assert_eq!(zipf_counts(1, 1.0, 7), [7]);
    }

    #[test]
    fn read_ranks_are_one_multiset_in_an_order_set_by_seed_and_connection() {
        assert_eq!(read_ranks(3, 1, 256, 500), read_ranks(3, 1, 256, 500));
        assert_ne!(read_ranks(3, 1, 256, 500), read_ranks(3, 0, 256, 500));
        assert_ne!(read_ranks(3, 1, 256, 500), read_ranks(4, 1, 256, 500));
        let sorted = |mut v: Vec<u32>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(read_ranks(3, 1, 256, 500)),
            sorted(read_ranks(4, 0, 256, 500))
        );
        // Shuffled, not left rank by rank.
        let list = read_ranks(3, 1, 256, 500);
        assert!(list.windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn read_pool_texts_are_distinct_and_stay_in_the_val_domain() {
        let texts: HashSet<String> = (0..256).map(read_text).collect();
        assert_eq!(texts.len(), 256);
        // Highest window: 7 * (255 / 5) + 100 = 457 ≤ 1000.
        assert!(read_text(255).contains("(< val 457)"));
    }

    #[test]
    fn write_keys_never_collide_between_connections() {
        // Scale 0.2: |r00| = 2000, |r01| = 1600.
        let keys = WriteKeys::new(1600, 2000, 2);
        assert_eq!(keys.per_conn(), 200);
        for seed in [0u64, 1, 99] {
            let owned = |conn| -> HashSet<u64> {
                (0..1000).map(|cycle| keys.key(seed, conn, cycle)).collect()
            };
            let (a, b) = (owned(0), owned(1));
            assert!(a.is_disjoint(&b), "connections share a key");
            for k in a.iter().chain(&b) {
                assert!((1600..2000).contains(k), "key {k} outside the free range");
            }
            // Consecutive cycles of one connection use different keys, so
            // a delete never removes the next cycle's append.
            assert_ne!(keys.key(seed, 0, 0), keys.key(seed, 0, 1));
        }
    }

    #[test]
    #[should_panic(expected = "no free keys")]
    fn write_keys_reject_a_target_as_large_as_the_source() {
        let _ = WriteKeys::new(2000, 2000, 2);
    }
}
