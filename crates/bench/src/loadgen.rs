//! Multi-client load-generation knobs and query synthesis for
//! `serve_bench` — kept in the library so the FromStr/Display round-trip
//! contract is testable alongside the other flag enums.

use std::fmt;
use std::str::FromStr;

/// How each simulated client issues requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopMode {
    /// One request in flight per client: send, wait for the response,
    /// repeat. Measures service latency under self-limiting load.
    #[default]
    Closed,
    /// Requests sent on a fixed schedule (`--qps` per client) regardless
    /// of outstanding responses, pipelined on the connection. Measures
    /// behavior under offered load, including `Busy` rejections.
    Open,
}

impl LoopMode {
    /// Every mode, in benchmark order.
    pub const ALL: [LoopMode; 2] = [LoopMode::Closed, LoopMode::Open];

    /// Stable lowercase name (the `--mode` flag spelling).
    pub fn name(self) -> &'static str {
        match self {
            LoopMode::Closed => "closed",
            LoopMode::Open => "open",
        }
    }
}

impl fmt::Display for LoopMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for LoopMode {
    type Err = String;

    fn from_str(s: &str) -> Result<LoopMode, String> {
        match s {
            "closed" => Ok(LoopMode::Closed),
            "open" => Ok(LoopMode::Open),
            other => Err(format!("unknown loop mode `{other}` (closed|open)")),
        }
    }
}

/// What the generated clients ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestMix {
    /// Every client sends the same read query — the best case for
    /// read-batch fusion (fused executions ≪ submitted queries).
    #[default]
    ReadSame,
    /// Reads over varying relations and selectivities; identical requests
    /// still collide occasionally, so some fusion remains.
    ReadMixed,
    /// [`RequestMix::ReadMixed`] with every eighth request an `append`,
    /// exercising write serialization under the relation lock table.
    ReadWrite,
    /// [`RequestMix::ReadMixed`] with every fourth request an `append`
    /// into a per-client target drawn from r10..r14 — writes to
    /// *disjoint* relations. The partitioned-write-path mix: disjoint
    /// writes overlap under the per-relation gate
    /// (`concurrent_write_batches` > 0) while the read pool (r02..r09)
    /// never intersects a write's relations, so cached read plans
    /// survive every write.
    WriteDisjoint,
    /// The incremental-view mix: every fourth request appends into `r01`
    /// (a base of both [`RequestMix::VIEWS`]), half the rest read a
    /// maintained view, and the remainder are plain mixed reads. Use via
    /// [`RequestMix::request`] — view reads are not expressible as query
    /// text.
    ViewRead,
}

/// One synthesized client request: ordinary query text, or a read of a
/// named standing view (a different wire request, not a query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenRequest {
    /// Submit this query text.
    Query(String),
    /// Read the named maintained view.
    ViewRead(&'static str),
}

impl RequestMix {
    /// Every mix, in benchmark order.
    pub const ALL: [RequestMix; 5] = [
        RequestMix::ReadSame,
        RequestMix::ReadMixed,
        RequestMix::ReadWrite,
        RequestMix::WriteDisjoint,
        RequestMix::ViewRead,
    ];

    /// The standing views the `view-read` mix expects installed, as
    /// `(name, defining query)`: one join-bearing, one set-op, both over
    /// the mix's write target `r01` so every write batch exercises both
    /// delta paths. `serve_bench` installs them before driving the mix.
    pub const VIEWS: [(&'static str, &'static str); 2] = [
        ("bench_join", "(join (scan r00) (scan r01) (= key key))"),
        ("bench_set", "(union (scan r02) (scan r01))"),
    ];

    /// Stable lowercase name (the `--mix` flag spelling).
    pub fn name(self) -> &'static str {
        match self {
            RequestMix::ReadSame => "read-same",
            RequestMix::ReadMixed => "read-mixed",
            RequestMix::ReadWrite => "read-write",
            RequestMix::WriteDisjoint => "write-disjoint",
            RequestMix::ViewRead => "view-read",
        }
    }

    /// The request client `client` issues as its `seq`-th action.
    /// Deterministic, like [`RequestMix::query_text`], which it extends
    /// with view reads for the `view-read` mix.
    pub fn request(self, client: usize, seq: u64) -> GenRequest {
        match self {
            RequestMix::ViewRead => match seq % 4 {
                // Writes feed both views through r01; the key draw comes
                // from the client's own stream.
                3 => {
                    let key = client_draw(client, seq) % 50;
                    GenRequest::Query(format!("(append (restrict (scan r00) (= key {key})) r01)"))
                }
                1 => GenRequest::ViewRead(RequestMix::VIEWS[client % 2].0),
                2 => GenRequest::ViewRead(RequestMix::VIEWS[(client + 1) % 2].0),
                _ => GenRequest::Query(read_mixed(client, seq)),
            },
            other => GenRequest::Query(other.query_text(client, seq)),
        }
    }

    /// The query text client `client` sends as its `seq`-th request.
    /// Deterministic, so runs are reproducible and fusion counts are a
    /// property of the mix, not of chance.
    pub fn query_text(self, client: usize, seq: u64) -> String {
        match self {
            RequestMix::ReadSame => "(restrict (scan r03) (< val 500))".to_string(),
            RequestMix::ReadMixed => read_mixed(client, seq),
            RequestMix::ReadWrite => {
                if seq % 8 == 7 {
                    // Append one existing tuple (keys are unique, so the
                    // restriction selects exactly one) into a sibling
                    // relation — a minimal, observable write.
                    let key = (client as u64 * 31 + seq) % 50;
                    format!("(append (restrict (scan r00) (= key {key})) r01)")
                } else {
                    read_mixed(client, seq)
                }
            }
            RequestMix::WriteDisjoint => {
                if seq % 4 == 3 {
                    // Each client appends into its own target (r10..r14
                    // for five-way disjointness); the source restriction
                    // selects exactly one tuple. Distinct keys keep the
                    // write plans distinct, defeating write fusion.
                    let key = (client as u64 * 31 + seq) % 50;
                    let target = 10 + client % 5;
                    format!("(append (restrict (scan r00) (= key {key})) r{target})")
                } else {
                    read_mixed(client, seq)
                }
            }
            // View reads are not query text; the plain-query share of the
            // mix is what this accessor can express.
            RequestMix::ViewRead => read_mixed(client, seq),
        }
    }
}

/// The splitmix64 output function: one additive step plus the two-round
/// xor-multiply finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `seq`-th draw of client `client`'s private splitmix64 stream.
///
/// The client id is avalanched into a stream base first, so each client
/// is an *independently seeded* generator. The earlier seeding added
/// `client * GOLDEN + seq` into one finalizer, which made every client's
/// draws a shifted window of a single global sequence — adjacent clients
/// marched through correlated positions instead of sampling
/// independently.
fn client_draw(client: usize, seq: u64) -> u64 {
    let base = splitmix64(client as u64);
    splitmix64(base.wrapping_add(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A read whose relation and selectivity vary with (client, seq) over a
/// small set, so concurrent clients sometimes collide on the same plan.
fn read_mixed(client: usize, seq: u64) -> String {
    let rel = (client as u64 + seq) % 8 + 2; // r02..r09: never the write targets
    let threshold = (seq % 4 + 1) * 200; // 200..800 of VAL_DOMAIN=1000
    format!("(restrict (scan r{rel:02}) (< val {threshold}))")
}

impl fmt::Display for RequestMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RequestMix {
    type Err = String;

    fn from_str(s: &str) -> Result<RequestMix, String> {
        match s {
            "read-same" => Ok(RequestMix::ReadSame),
            "read-mixed" => Ok(RequestMix::ReadMixed),
            "read-write" => Ok(RequestMix::ReadWrite),
            "write-disjoint" => Ok(RequestMix::WriteDisjoint),
            "view-read" => Ok(RequestMix::ViewRead),
            other => Err(format!(
                "unknown request mix `{other}` \
                 (read-same|read-mixed|read-write|write-disjoint|view-read)"
            )),
        }
    }
}

/// The `p`-th percentile (0.0–1.0) of an unsorted latency sample, by the
/// nearest-rank method. Returns 0.0 for an empty sample.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_mode_round_trips() {
        for mode in LoopMode::ALL {
            assert_eq!(mode.to_string().parse::<LoopMode>(), Ok(mode));
        }
        assert!("both".parse::<LoopMode>().is_err());
    }

    #[test]
    fn request_mix_round_trips() {
        for mix in RequestMix::ALL {
            assert_eq!(mix.to_string().parse::<RequestMix>(), Ok(mix));
        }
        assert!("write-only".parse::<RequestMix>().is_err());
    }

    #[test]
    fn read_same_is_identical_across_clients() {
        let q = RequestMix::ReadSame.query_text(0, 0);
        assert_eq!(RequestMix::ReadSame.query_text(7, 123), q);
    }

    #[test]
    fn read_write_mix_appends_every_eighth() {
        let writes = (0..64)
            .filter(|&s| {
                RequestMix::ReadWrite
                    .query_text(1, s)
                    .starts_with("(append")
            })
            .count();
        assert_eq!(writes, 8);
    }

    #[test]
    fn read_mixed_avoids_write_targets() {
        for client in 0..8 {
            for seq in 0..32 {
                let q = RequestMix::ReadMixed.query_text(client, seq);
                assert!(!q.contains("r00") && !q.contains("r01"), "{q}");
            }
        }
    }

    #[test]
    fn write_disjoint_targets_are_per_client_and_every_fourth() {
        let mix = RequestMix::WriteDisjoint;
        for client in 0..10 {
            let target = format!("r{}", 10 + client % 5);
            for seq in 0..32 {
                let q = mix.query_text(client, seq);
                if seq % 4 == 3 {
                    assert!(q.starts_with("(append"), "{q}");
                    assert!(q.ends_with(&format!("{target})")), "{q}");
                } else {
                    // Reads never touch the write targets (r00, r10..r14),
                    // so cached read plans survive every write.
                    assert!(q.starts_with("(restrict"), "{q}");
                    assert!(!q.contains("r00") && !q.contains("r1"), "{q}");
                }
            }
        }
        // Clients 5 apart share a target; neighbors never do.
        assert_eq!(
            mix.query_text(0, 3).split_whitespace().last(),
            mix.query_text(5, 3).split_whitespace().last()
        );
    }

    #[test]
    fn client_streams_are_deterministic_and_independently_seeded() {
        let stream =
            |client: usize| -> Vec<u64> { (0..64).map(|s| client_draw(client, s)).collect() };
        for client in 0..4 {
            assert_eq!(stream(client), stream(client), "re-generation drifted");
        }
        // Independent seeding: distinct clients draw distinct sequences,
        // and no client's stream is a one-step shifted window of its
        // neighbor's — the signature of derived-from-one-stream seeding.
        for client in 0..3 {
            assert_ne!(stream(client), stream(client + 1));
            let shifted =
                (0..64).filter(|&s| client_draw(client + 1, s) == client_draw(client, s + 1));
            assert_eq!(
                shifted.count(),
                0,
                "client {} tracks client {}'s stream",
                client + 1,
                client
            );
        }
    }

    #[test]
    fn view_read_mix_blends_writes_view_reads_and_queries() {
        assert_eq!("view-read".parse::<RequestMix>(), Ok(RequestMix::ViewRead));
        assert_eq!(RequestMix::ViewRead.to_string(), "view-read");
        let mut writes = 0;
        let mut view_reads = std::collections::HashSet::new();
        for client in 0..4 {
            for seq in 0..32 {
                match RequestMix::ViewRead.request(client, seq) {
                    GenRequest::Query(q) if q.starts_with("(append") => {
                        assert_eq!(seq % 4, 3, "writes land on the fourth beat");
                        assert!(q.ends_with("r01)"), "writes feed the view bases: {q}");
                        writes += 1;
                    }
                    GenRequest::Query(q) => assert!(q.starts_with("(restrict"), "{q}"),
                    GenRequest::ViewRead(name) => {
                        view_reads.insert(name);
                    }
                }
            }
        }
        assert_eq!(writes, 4 * 8, "every fourth request writes");
        let names: std::collections::HashSet<_> =
            RequestMix::VIEWS.iter().map(|(n, _)| *n).collect();
        assert_eq!(view_reads, names, "both views get read");
        // Deterministic, like every other mix.
        assert_eq!(
            RequestMix::ViewRead.request(2, 17),
            RequestMix::ViewRead.request(2, 17)
        );
        // The non-view mixes pass through request() as plain queries.
        assert_eq!(
            RequestMix::ReadSame.request(0, 0),
            GenRequest::Query(RequestMix::ReadSame.query_text(0, 0))
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.50), 50.0);
        assert_eq!(percentile(&mut v, 0.95), 95.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), 0.0);
    }
}
