//! Reproducibility: every layer of the system is a pure function of its
//! seed and parameters. Identical runs must agree to the byte and the
//! nanosecond — this is what makes the experiment tables in EXPERIMENTS.md
//! reproducible on any machine.

use df_core::{run_queries, AllocationStrategy, Granularity, MachineParams};
use df_ring::{run_ring_queries, RingParams};
use df_workload::{benchmark_queries, generate_database, BenchmarkSpec, DatabaseSpec};

#[test]
fn database_generation_is_deterministic() {
    let spec = DatabaseSpec::scaled(0.02);
    let a = generate_database(&spec);
    let b = generate_database(&spec);
    assert_eq!(a, b);
    // Byte-level: equal total size and per-relation pages.
    assert_eq!(a.total_bytes(), b.total_bytes());
}

#[test]
fn core_machine_is_deterministic_across_granularities() {
    let spec = BenchmarkSpec::scaled(0.01);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).unwrap();
    let params = MachineParams::with_processors(8);
    for g in Granularity::ALL {
        let a = run_queries(&db, &queries, &params, g, AllocationStrategy::default()).unwrap();
        let b = run_queries(&db, &queries, &params, g, AllocationStrategy::default()).unwrap();
        assert_eq!(a.metrics.elapsed, b.metrics.elapsed, "granularity {g}");
        assert_eq!(a.metrics.arbitration.bytes, b.metrics.arbitration.bytes);
        assert_eq!(a.metrics.distribution.bytes, b.metrics.distribution.bytes);
        assert_eq!(a.metrics.disk_read.bytes, b.metrics.disk_read.bytes);
        assert_eq!(a.metrics.disk_write.bytes, b.metrics.disk_write.bytes);
        assert_eq!(a.metrics.units_dispatched, b.metrics.units_dispatched);
        assert_eq!(a.metrics.query_completions, b.metrics.query_completions);
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x, y, "result relations differ at {g}");
        }
    }
}

#[test]
fn ring_machine_is_deterministic() {
    let spec = BenchmarkSpec::scaled(0.01);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).unwrap();
    let params = RingParams::with_pools(3, 6);
    let a = run_ring_queries(&db, &queries, &params).unwrap();
    let b = run_ring_queries(&db, &queries, &params).unwrap();
    assert_eq!(a.metrics.elapsed, b.metrics.elapsed);
    assert_eq!(a.metrics.outer_ring.bytes, b.metrics.outer_ring.bytes);
    assert_eq!(a.metrics.inner_ring.bytes, b.metrics.inner_ring.bytes);
    assert_eq!(a.metrics.broadcasts, b.metrics.broadcasts);
    assert_eq!(a.metrics.pages_missed, b.metrics.pages_missed);
    assert_eq!(a.metrics.requests_ignored, b.metrics.requests_ignored);
    assert_eq!(a.metrics.query_completions, b.metrics.query_completions);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_give_different_databases_but_both_run() {
    let mut spec_a = BenchmarkSpec::scaled(0.01);
    let mut spec_b = BenchmarkSpec::scaled(0.01);
    spec_a.database.seed = 1;
    spec_b.database.seed = 2;
    let db_a = generate_database(&spec_a.database);
    let db_b = generate_database(&spec_b.database);
    assert_ne!(db_a, db_b);
    let params = MachineParams::with_processors(4);
    for (db, spec) in [(&db_a, &spec_a), (&db_b, &spec_b)] {
        let queries = benchmark_queries(db, spec).unwrap();
        let out = run_queries(
            db,
            &queries,
            &params,
            Granularity::Page,
            AllocationStrategy::default(),
        )
        .unwrap();
        assert!(out.metrics.elapsed > df_sim::SimTime::ZERO);
    }
}

#[test]
fn seeded_results_are_stable_across_this_build() {
    // A change to the simulator's event ordering or cost model shows up
    // here as a changed fingerprint, forcing EXPERIMENTS.md to be re-run.
    let spec = BenchmarkSpec::scaled(0.01);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).unwrap();
    let out = run_queries(
        &db,
        &queries,
        &MachineParams::with_processors(8),
        Granularity::Page,
        AllocationStrategy::default(),
    )
    .unwrap();
    let tuple_total: usize = out.results.iter().map(|r| r.num_tuples()).sum();
    // The tuple total is a data-path property: independent of timing
    // models, it must equal the oracle's count exactly.
    let oracle_total: usize = queries
        .iter()
        .map(|q| {
            df_query::execute_readonly(&db, q, &df_query::ExecParams::default())
                .unwrap()
                .num_tuples()
        })
        .sum();
    assert_eq!(tuple_total, oracle_total);
}

/// FNV-1a over a value's `Debug` text: a digest that is the same in every
/// process, unlike a `HashMap`'s per-process SipHash keys.
fn digest(v: &impl std::fmt::Debug) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Every field of a df-core run, scalars as themselves and lists as a
/// [`digest`]. The destructuring names each field, so a new field fails to
/// compile here until it is covered.
fn core_fields(out: &df_core::RunOutput) -> Fields {
    let df_core::Metrics {
        elapsed,
        arbitration,
        distribution,
        disk_read,
        disk_write,
        cache_in,
        cache_out,
        proc_busy,
        processors,
        units_dispatched,
        query_completions,
        instructions,
        arbitration_series,
        distribution_series,
    } = &out.metrics;
    vec![
        ("elapsed_ns", elapsed.as_nanos()),
        ("arbitration_bytes", arbitration.bytes),
        ("arbitration_transfers", arbitration.transfers),
        ("distribution_bytes", distribution.bytes),
        ("distribution_transfers", distribution.transfers),
        ("disk_read_bytes", disk_read.bytes),
        ("disk_read_transfers", disk_read.transfers),
        ("disk_write_bytes", disk_write.bytes),
        ("disk_write_transfers", disk_write.transfers),
        ("cache_in_bytes", cache_in.bytes),
        ("cache_in_transfers", cache_in.transfers),
        ("cache_out_bytes", cache_out.bytes),
        ("cache_out_transfers", cache_out.transfers),
        ("proc_busy_ns", proc_busy.as_nanos()),
        ("processors", *processors as u64),
        ("units_dispatched", *units_dispatched),
        ("query_completions", digest(query_completions)),
        ("instructions", digest(instructions)),
        ("arbitration_series", digest(arbitration_series)),
        ("distribution_series", digest(distribution_series)),
        ("results", digest(&out.results)),
    ]
}

/// Every field of a df-ring run, as [`core_fields`] does for df-core.
fn ring_fields(out: &df_ring::RingRunOutput) -> Fields {
    let df_ring::RingMetrics {
        elapsed,
        ips,
        ics,
        inner_ring,
        outer_ring,
        disk_read,
        disk_write,
        cache_in,
        cache_out,
        ip_busy,
        instruction_packets,
        result_packets,
        control_packets,
        broadcasts,
        requests_ignored,
        pages_missed,
        direct_routed_pages,
        query_completions,
        query_arrivals,
        queries_delayed_by_cc,
        peak_busy_ips,
        peak_granted_ips,
        instruction_timeline,
        inner_ring_series,
        outer_ring_series,
        disk_series,
        cache_series,
    } = &out.metrics;
    vec![
        ("elapsed_ns", elapsed.as_nanos()),
        ("ips", *ips as u64),
        ("ics", *ics as u64),
        ("inner_ring_bytes", inner_ring.bytes),
        ("inner_ring_transfers", inner_ring.transfers),
        ("outer_ring_bytes", outer_ring.bytes),
        ("outer_ring_transfers", outer_ring.transfers),
        ("disk_read_bytes", disk_read.bytes),
        ("disk_read_transfers", disk_read.transfers),
        ("disk_write_bytes", disk_write.bytes),
        ("disk_write_transfers", disk_write.transfers),
        ("cache_in_bytes", cache_in.bytes),
        ("cache_in_transfers", cache_in.transfers),
        ("cache_out_bytes", cache_out.bytes),
        ("cache_out_transfers", cache_out.transfers),
        ("ip_busy_ns", ip_busy.as_nanos()),
        ("instruction_packets", *instruction_packets),
        ("result_packets", *result_packets),
        ("control_packets", *control_packets),
        ("broadcasts", *broadcasts),
        ("requests_ignored", *requests_ignored),
        ("pages_missed", *pages_missed),
        ("direct_routed_pages", *direct_routed_pages),
        ("query_completions", digest(query_completions)),
        ("query_arrivals", digest(query_arrivals)),
        ("queries_delayed_by_cc", *queries_delayed_by_cc),
        ("peak_busy_ips", *peak_busy_ips),
        ("peak_granted_ips", *peak_granted_ips),
        ("instruction_timeline", digest(instruction_timeline)),
        ("inner_ring_series", digest(inner_ring_series)),
        ("outer_ring_series", digest(outer_ring_series)),
        ("disk_series", digest(disk_series)),
        ("cache_series", digest(cache_series)),
        ("results", digest(&out.results)),
    ]
}

type Fields = Vec<(&'static str, u64)>;

/// The two-runs-in-one-process tests above share one set of SipHash keys,
/// so they cannot see a result that depends on a hash map's iteration
/// order. These constants were taken in another process (from the
/// simulators as they stood before their page-id tables became dense), so
/// any such dependence — or any change to what the machines compute —
/// fails here. The core run's cache holds a third of the database, so it
/// evicts and spills; the ring run segments a small cache across its ICs.
/// On a mismatch the test prints every run's fields in the form below.
#[test]
fn simulated_statistics_match_committed_constants() {
    let spec = BenchmarkSpec::scaled(0.05);
    let db = generate_database(&spec.database);
    let queries = benchmark_queries(&db, &spec).unwrap();

    let mut params = MachineParams::with_processors(8);
    params.cache.frames = (db.total_bytes() / params.page_size / 3).max(16);
    let mut got: Vec<(String, Fields)> = Granularity::ALL
        .into_iter()
        .map(|g| {
            let out =
                run_queries(&db, &queries, &params, g, AllocationStrategy::default()).unwrap();
            (format!("df-core {g}"), core_fields(&out))
        })
        .collect();

    let mut params = RingParams::with_pools(4, 12);
    params.cache.frames = 64;
    params.ic_memory_pages = 8;
    let out = run_ring_queries(&db, &queries, &params).unwrap();
    got.push(("df-ring".to_string(), ring_fields(&out)));

    let want = [CORE_RELATION, CORE_PAGE, CORE_TUPLE, RING];
    let differs: Vec<&str> = (got.iter().zip(want))
        .filter(|((_, fields), want)| fields.as_slice() != *want)
        .map(|((run, _), _)| run.as_str())
        .collect();
    if !differs.is_empty() {
        for (run, fields) in &got {
            println!("// {run}");
            for (name, value) in fields {
                println!("    (\"{name}\", {value}),");
            }
        }
    }
    assert!(
        differs.is_empty(),
        "simulated statistics differ from the committed constants: {differs:?}"
    );
}

const CORE_RELATION: &[(&str, u64)] = &[
    ("elapsed_ns", 17417221799),
    ("arbitration_bytes", 851144),
    ("arbitration_transfers", 828),
    ("distribution_bytes", 419056),
    ("distribution_transfers", 422),
    ("disk_read_bytes", 541108),
    ("disk_read_transfers", 538),
    ("disk_write_bytes", 269352),
    ("disk_write_transfers", 272),
    ("cache_in_bytes", 946660),
    ("cache_in_transfers", 960),
    ("cache_out_bytes", 283540),
    ("cache_out_transfers", 290),
    ("proc_busy_ns", 5797225761),
    ("processors", 8),
    ("units_dispatched", 760),
    ("query_completions", 17445658768008422774),
    ("instructions", 18283667018665403658),
    ("arbitration_series", 882742325645422523),
    ("distribution_series", 1555126090934647251),
    ("results", 12152441441357531724),
];
const CORE_PAGE: &[(&str, u64)] = &[
    ("elapsed_ns", 10770003823),
    ("arbitration_bytes", 851144),
    ("arbitration_transfers", 828),
    ("distribution_bytes", 419056),
    ("distribution_transfers", 422),
    ("disk_read_bytes", 392508),
    ("disk_read_transfers", 388),
    ("disk_write_bytes", 119152),
    ("disk_write_transfers", 122),
    ("cache_in_bytes", 798060),
    ("cache_in_transfers", 810),
    ("cache_out_bytes", 432140),
    ("cache_out_transfers", 440),
    ("proc_busy_ns", 6083225731),
    ("processors", 8),
    ("units_dispatched", 895),
    ("query_completions", 12092272534783501002),
    ("instructions", 9757314660410907076),
    ("arbitration_series", 17693344477310914416),
    ("distribution_series", 14780540687909189593),
    ("results", 8952486899247918300),
];
const CORE_TUPLE: &[(&str, u64)] = &[
    ("elapsed_ns", 31295047637),
    ("arbitration_bytes", 29616500),
    ("arbitration_transfers", 118400),
    ("distribution_bytes", 500848),
    ("distribution_transfers", 3189),
    ("disk_read_bytes", 1110164),
    ("disk_read_transfers", 1104),
    ("disk_write_bytes", 356076),
    ("disk_write_transfers", 361),
    ("cache_in_bytes", 1515716),
    ("cache_in_transfers", 1526),
    ("cache_out_bytes", 1257456),
    ("cache_out_transfers", 1291),
    ("proc_busy_ns", 6045027346),
    ("processors", 8),
    ("units_dispatched", 876),
    ("query_completions", 273189031466225893),
    ("instructions", 12669600718294694242),
    ("arbitration_series", 10020204731194785114),
    ("distribution_series", 5257929753686479116),
    ("results", 1818009125438924304),
];
const RING: &[(&str, u64)] = &[
    ("elapsed_ns", 33960508684),
    ("ips", 12),
    ("ics", 4),
    ("inner_ring_bytes", 29952),
    ("inner_ring_transfers", 468),
    ("outer_ring_bytes", 2297107),
    ("outer_ring_transfers", 4310),
    ("disk_read_bytes", 1226008),
    ("disk_read_transfers", 1238),
    ("disk_write_bytes", 360848),
    ("disk_write_transfers", 378),
    ("cache_in_bytes", 1603244),
    ("cache_in_transfers", 1634),
    ("cache_out_bytes", 521204),
    ("cache_out_transfers", 519),
    ("ip_busy_ns", 8416125483),
    ("instruction_packets", 756),
    ("result_packets", 437),
    ("control_packets", 2083),
    ("broadcasts", 953),
    ("requests_ignored", 331),
    ("pages_missed", 0),
    ("direct_routed_pages", 0),
    ("query_completions", 15122986323016752911),
    ("query_arrivals", 2278821992691481505),
    ("queries_delayed_by_cc", 0),
    ("peak_busy_ips", 9),
    ("peak_granted_ips", 12),
    ("instruction_timeline", 15426282314673672787),
    ("inner_ring_series", 3091567492342083668),
    ("outer_ring_series", 2082586545859036471),
    ("disk_series", 17582621300022246084),
    ("cache_series", 2644513744183880127),
    ("results", 5104267790116607563),
];
