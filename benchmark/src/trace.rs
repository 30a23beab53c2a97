//! The benchmark's own span recorder (traced runs only). One span —
//! name, start, end, parent, op id — is recorded around every call the
//! benchmark makes into a layer, kept in memory, and written to
//! `trace.json` at exit. A layer's self time is its spans' duration minus
//! the part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use df_obs::JsonValue;

use crate::runner::RunArgs;

/// Marker for a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the last dot.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: u32,
    /// The op this span belongs to — spans of one op share it.
    pub op: u64,
}

/// A per-connection span buffer: no locks, no globals; buffers are
/// merged when the run ends.
#[derive(Debug)]
pub struct SpanBuf {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanBuf {
    /// A buffer stamping times relative to `epoch`, initially off.
    pub fn new(epoch: Instant) -> SpanBuf {
        SpanBuf {
            on: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off (between ops only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns a handle for
    /// [`SpanBuf::close`]; `None` while recording is off.
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.stack.push(index);
        Some(index)
    }

    /// Close the span `handle` (which must be the innermost open one).
    pub fn close(&mut self, handle: Option<u32>) {
        let Some(index) = handle else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(index), "spans closed out of order");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    /// Record an interval measured elsewhere (e.g. a kernel span the
    /// program's own tracer reported) as a child of the recorded span
    /// `parent`, whenever that is; nothing if the parent was not recorded.
    pub fn push_closed(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) {
        if let Some(parent) = parent {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                op,
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over one or more buffers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − union of child intervals), ns.
    pub self_ns: u64,
}

/// Self-time accounting for one buffer, accumulated into `into`.
pub fn accumulate_self_times(spans: &[Span], into: &mut BTreeMap<&'static str, NameTotals>) {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    for (s, kids) in spans.iter().zip(&mut children) {
        let duration = s.end_ns - s.start_ns;
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let t = into.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration - covered;
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children on
/// parallel workers overlap, so they are merged before subtracting.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0u64, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// The self-time table of a traced run, one row per span name, largest
/// self time first: `(name, totals, share of Σ self time)`.
pub fn self_time_table(bufs: &[&SpanBuf]) -> Vec<(&'static str, NameTotals, f64)> {
    let mut totals = BTreeMap::new();
    for b in bufs {
        accumulate_self_times(b.spans(), &mut totals);
    }
    let all: u64 = totals.values().map(|t| t.self_ns).sum();
    let mut rows: Vec<_> = totals
        .into_iter()
        .map(|(name, t)| (name, t, t.self_ns as f64 / all.max(1) as f64))
        .collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    rows
}

/// Most spans written per buffer: `trace.json` is for reading one op's
/// breakdown, the self-time table already covers every span.
pub const MAX_SPANS_PER_BUFFER: usize = 20_000;

/// Render `trace.json`: one object per span with buffer-qualified ids so
/// parents resolve across the merged list.
pub fn to_json(workload: &str, seed: u64, bufs: &[(&str, &SpanBuf)]) -> String {
    let mut spans = Vec::new();
    let mut truncated = 0usize;
    for (label, buf) in bufs {
        // Parents always precede their children in a buffer, so a prefix
        // is closed under the parent relation.
        let kept = buf.spans().len().min(MAX_SPANS_PER_BUFFER);
        truncated += buf.spans().len() - kept;
        for (i, s) in buf.spans()[..kept].iter().enumerate() {
            let mut o = JsonValue::obj();
            o.set("id", format!("{label}:{i}"))
                .set("name", s.name)
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("op", s.op);
            if s.parent != NO_PARENT {
                o.set("parent", format!("{label}:{}", s.parent));
            }
            spans.push(o);
        }
    }
    let mut root = JsonValue::obj();
    root.set("workload", workload)
        .set("seed", seed)
        .set("truncated_spans", truncated)
        .set("spans", spans);
    root.to_pretty()
}

/// End a traced run: print the self-time table and write `trace.json`
/// under `--out`.
pub fn finish(workload: &str, args: &RunArgs, bufs: &[(&str, &SpanBuf)]) -> Result<(), String> {
    let only: Vec<&SpanBuf> = bufs.iter().map(|(_, b)| *b).collect();
    println!("{workload}  # self time per span name (duration minus what child spans cover):");
    println!(
        "{workload}  # {:<28} {:>9} {:>12} {:>12} {:>7}",
        "span", "count", "total ms", "self ms", "share"
    );
    for (name, t, share) in self_time_table(&only) {
        println!(
            "{workload}  # {name:<28} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            share * 100.0
        );
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join("trace.json");
    std::fs::write(&path, to_json(workload, args.seed, bufs))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{workload}  # trace: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // op [0,100] > host [10,90] > two kernels on parallel workers
        // [20,50] and [40,70] (union 50) plus one outside-clipped [85,95].
        let spans = vec![
            span("bench.op", 0, 100, NO_PARENT),
            span("host.run", 10, 90, 0),
            span("query.kernel", 20, 50, 1),
            span("query.kernel", 40, 70, 1),
            span("query.kernel", 85, 95, 1),
        ];
        let mut totals = BTreeMap::new();
        accumulate_self_times(&spans, &mut totals);
        assert_eq!(totals["bench.op"].self_ns, 20);
        assert_eq!(totals["host.run"].total_ns, 80);
        assert_eq!(totals["host.run"].self_ns, 80 - 50 - 5);
        assert_eq!(totals["query.kernel"].count, 3);
        assert_eq!(totals["query.kernel"].self_ns, 30 + 30 + 10);
    }

    #[test]
    fn buffer_nests_spans_and_ignores_everything_while_off() {
        let mut buf = SpanBuf::new(Instant::now());
        assert_eq!(buf.open("bench.op", 1), None);
        buf.close(None);
        buf.push_closed("query.kernel", 1, 2, None, 1);
        assert!(buf.spans().is_empty());

        buf.set_on(true);
        let op = buf.open("bench.op", 7);
        let call = buf.open("host.run", 7);
        buf.push_closed("query.kernel", 5, 3, call, 7);
        buf.close(call);
        buf.close(op);
        let s = buf.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[2].end_ns, 5, "inverted interval is clamped");
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);

        let table = self_time_table(&[&buf]);
        let share: f64 = table.iter().map(|r| r.2).sum();
        assert!((share - 1.0).abs() < 1e-9);
        let json = to_json("w", 3, &[("c0", &buf)]);
        let parsed = JsonValue::parse(&json).expect("valid json");
        assert_eq!(
            parsed.get("spans").and_then(|s| s.as_arr()).map(<[_]>::len),
            Some(3)
        );
    }
}
