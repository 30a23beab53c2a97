//! One instruction cell and the §2 firing rule. A [`Cell`]'s fields are
//! private to this module: the scheduler drives it only through the
//! rule's operations — deliver, end a stream, take, requeue, settle,
//! discard, complete.

use std::collections::VecDeque;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use df_query::ops::KeyClass;
use df_query::{Firing, JoinAlgo, Kernel};
use df_relalg::{Page, SideKeyColumn, SideKeyIndex, SidePages};

/// What one operand side of a pair-sweep cell keeps of the pages it has
/// received: shaped by the cell's kernel and the join algorithm
/// ([`Received::for_port`]), so a unit reads it in the form it probes.
#[derive(Debug)]
pub(super) enum Received {
    /// A hash join: the pages indexed on the side's join key — the build
    /// side of a symmetric hash join.
    Index(SideKeyIndex),
    /// A nested-loops join, or a θ-join under hash, on an `Int` key: the
    /// pages' keys as one dense column in arrival order.
    Column(SideKeyColumn),
    /// A θ-join on `Bytes` or `Typed` keys, or a cross product: the pages
    /// alone, swept page by page.
    Pages(SidePages),
}

impl Received {
    /// The side's shape for operand `port` of a cell running `kernel`
    /// under df-host's `join` algorithm: the one place the algorithm meets
    /// the join's condition. A hash join whose condition the hash path can
    /// run ([`df_query::ops::JoinSweep::hash_applicable`]) indexes its
    /// sides; any other join on an `Int` key keeps a key column.
    fn for_port(kernel: &Kernel, join: JoinAlgo, port: usize) -> Received {
        let Kernel::JoinPair(sweep) = kernel else {
            return Received::Pages(SidePages::new());
        };
        let condition = sweep.condition();
        let key = [condition.left, condition.right][port];
        match (join, sweep.class()) {
            (JoinAlgo::Hash, _) if sweep.hash_applicable() => {
                Received::Index(SideKeyIndex::new(key))
            }
            (_, KeyClass::Int) => Received::Column(SideKeyColumn::new(key)),
            _ => Received::Pages(SidePages::new()),
        }
    }

    /// The pages received, in arrival order, whatever the shape.
    pub fn pages(&self) -> &SidePages {
        match self {
            Received::Index(index) => index.received(),
            Received::Column(column) => column.received(),
            Received::Pages(pages) => pages,
        }
    }

    fn push(&mut self, page: Arc<Page>) {
        match self {
            Received::Index(index) => index.push(page),
            Received::Column(column) => column.push(page),
            Received::Pages(pages) => pages.push(page),
        }
    }
}

/// One operand side of a pair-sweep cell, shared by the cell and by the
/// pair units that read it. The cell's [`Cell::deliver`], on the scheduler
/// thread, is the only writer; units only read, and only the first `upto`
/// pages — those pushed before they fired, which never change.
#[derive(Debug, Clone)]
pub(super) struct Side(Arc<RwLock<Received>>);

impl Side {
    fn new(received: Received) -> Side {
        Side(Arc::new(RwLock::new(received)))
    }

    /// Read the side. A `RwLock` is poisoned only by a panic under its
    /// write guard, so a reader's panic (a kernel panic, caught per unit)
    /// cannot poison it. The one writer is [`Side::extend`] on the
    /// scheduler thread. Should a push panic midway, the page it was
    /// pushing is not yet counted in `pages()`, so whatever it left lies
    /// past every unit's `upto`: an index entry has an ordinal ≥ `upto`,
    /// and a key chain runs in ascending ordinal order, so a probe's walk
    /// stops at the first such entry (entries are stored before they are
    /// linked, so no link dangles); a column key lies past the last page's
    /// end, which no prefix reaches. A recovered guard therefore still
    /// shows every reader a whole prefix of pages.
    pub fn read(&self) -> RwLockReadGuard<'_, Received> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append `pages` behind every page already received. Poisoning is
    /// recovered for the reason given at [`Side::read`].
    fn extend(&self, pages: &[Arc<Page>]) {
        let mut side = self.0.write().unwrap_or_else(PoisonError::into_inner);
        for page in pages {
            side.push(Arc::clone(page));
        }
    }
}

/// The operand payload of one work unit. `Clone` is cheap (`Arc`s only);
/// a unit's payload is cloned only to requeue it when the worker holding
/// its run dies.
#[derive(Debug, Clone)]
pub(super) enum WorkKind {
    /// One operand page (restrict, non-dedup project, fused span).
    Page(Arc<Page>),
    /// A pair sweep (join or cross product): the newly arrived page against
    /// the first `upto` pages of the opposite side — the pages received
    /// when the unit fired, which never change — in the form the side
    /// keeps them.
    Pair {
        new_page: Arc<Page>,
        opposite: Side,
        upto: usize,
        new_is_outer: bool,
    },
    /// Complete operands of a blocking operator (union, difference,
    /// dedup project — `right` is empty for unary operators).
    Complete {
        left: Vec<Arc<Page>>,
        right: Vec<Arc<Page>>,
    },
}

/// What a cell keeps of its operands: shaped by firing class, then by how
/// far the cell has got.
#[derive(Debug)]
enum State {
    /// Per-page (and source) firing: a page fires on arrival, nothing is
    /// kept.
    PerPage,
    /// Pair-sweep firing: every page received so far, one side per port,
    /// each shaped by the cell's kernel.
    Pair([Side; 2]),
    /// A blocking cell collecting its complete operands, one list per port.
    Collecting([Vec<Arc<Page>>; 2]),
    /// A blocking cell whose single unit has been created.
    Fired,
    /// Operands ended and no work outstanding: the cell has completed.
    Done,
}

/// What the paper's instruction memory cell holds for one plan node: the
/// operand pages received so far (as its firing class needs them), which
/// operand streams have ended, the work units its arrivals created, and
/// how many of those runs hold.
#[derive(Debug)]
pub(super) struct Cell {
    state: State,
    /// Which operand streams have ended (ports the node lacks start ended).
    ports_done: [bool; 2],
    /// Work units created but not yet taken by a run.
    pending: VecDeque<WorkKind>,
    /// Units taken by runs and not yet settled or requeued — the one
    /// in-flight count; the query's and the scheduler's totals are sums
    /// of it.
    in_flight: usize,
}

impl Cell {
    /// A cell of `firing` class with `ports` operand ports (0 for a scan,
    /// which is fed at admission and has no operand stream), running
    /// `kernel`, which with df-host's `join` algorithm shapes a pair-sweep
    /// cell's sides ([`Received`]).
    pub fn new(firing: Firing, ports: usize, kernel: &Kernel, join: JoinAlgo) -> Cell {
        debug_assert!(ports <= 2, "operators take at most two operands");
        let state = match firing {
            Firing::Source | Firing::PerPage => State::PerPage,
            Firing::PairSweep => {
                let side = |port| Side::new(Received::for_port(kernel, join, port));
                State::Pair([0, 1].map(side))
            }
            Firing::Complete => State::Collecting(Default::default()),
        };
        Cell {
            state,
            ports_done: [ports < 1, ports < 2],
            pending: VecDeque::new(),
            in_flight: 0,
        }
    }

    /// Units waiting to be taken.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Units taken and not yet settled or requeued.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The §2 firing rule: operand `pages` arrived at `port`. Returns how
    /// many units they fired (for `CellFire`). A pair-sweep page is paired
    /// with every opposite page received so far; later opposite arrivals
    /// pick this page up, so each page pair is swept exactly once. Once the
    /// opposite stream has ended nothing will pick a page up, so it is not
    /// kept.
    pub fn deliver(&mut self, port: usize, pages: Vec<Arc<Page>>) -> u64 {
        debug_assert!(!self.ports_done[port], "a page after its stream ended");
        let before = self.pending.len();
        let new_is_outer = port == 0;
        let keep = !self.ports_done[1 - port];
        match &mut self.state {
            State::PerPage => self.pending.extend(pages.into_iter().map(WorkKind::Page)),
            State::Pair(sides) => {
                // The bound is the opposite side's page count now: later
                // opposite pages pair with this side instead.
                let opposite = &sides[1 - port];
                let upto = opposite.read().pages().len();
                if upto > 0 {
                    self.pending.extend(pages.iter().map(|p| WorkKind::Pair {
                        new_page: Arc::clone(p),
                        opposite: opposite.clone(),
                        upto,
                        new_is_outer,
                    }));
                }
                if keep {
                    sides[port].extend(&pages);
                }
            }
            State::Collecting(received) => received[port].extend(pages),
            State::Fired | State::Done => unreachable!("operands after every stream ended"),
        }
        (self.pending.len() - before) as u64
    }

    /// The operand stream on `port` ended. Once every stream has, a
    /// blocking cell fires its single unit over the complete operands;
    /// returns the units fired (0 or 1).
    pub fn port_done(&mut self, port: usize) -> u64 {
        debug_assert!(!self.ports_done[port], "a stream ends once");
        self.ports_done[port] = true;
        if self.ports_done != [true; 2] {
            return 0;
        }
        let State::Collecting([left, right]) = &mut self.state else {
            return 0;
        };
        let unit = WorkKind::Complete {
            left: std::mem::take(left),
            right: std::mem::take(right),
        };
        self.pending.push_back(unit);
        self.state = State::Fired;
        1
    }

    /// Take the next `n` pending units for one run; they are in flight
    /// until settled or requeued.
    pub fn take(&mut self, n: usize) -> impl Iterator<Item = WorkKind> + '_ {
        self.in_flight += n;
        self.pending.drain(..n)
    }

    /// A dead worker held these in-flight units: put them back at the head
    /// of the queue, in order, for a survivor to take.
    pub fn requeue<'u>(&mut self, units: impl DoubleEndedIterator<Item = &'u WorkKind>) {
        for kind in units.rev() {
            self.in_flight -= 1;
            self.pending.push_front(kind.clone());
        }
    }

    /// `n` in-flight units came back: served, or lost with a doomed query.
    pub fn settle(&mut self, n: usize) {
        debug_assert!(n <= self.in_flight, "settling units never taken");
        self.in_flight -= n;
    }

    /// The owning query is doomed: drop the work no run has taken.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
    }

    /// Every stream ended, the blocking fire (if any) happened, and no unit
    /// is pending or in flight.
    pub fn ready_to_complete(&self) -> bool {
        !matches!(self.state, State::Collecting(_) | State::Done)
            && self.ports_done == [true; 2]
            && self.pending.is_empty()
            && self.in_flight == 0
    }

    /// Mark the cell completed, dropping its page tables and indexes.
    pub fn complete(&mut self) {
        debug_assert!(self.ready_to_complete(), "completing a busy cell");
        self.state = State::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_query::ops::{JoinSweep, UnaryKernel};
    use df_relalg::{CmpOp, DataType, JoinCondition, Schema};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn schema() -> Schema {
        Schema::build().attr("k", DataType::Int).finish().unwrap()
    }

    /// `n` distinct (empty) pages; a page is identified by its allocation.
    fn pages(n: usize) -> Vec<Arc<Page>> {
        (0..n)
            .map(|_| Arc::new(Page::new(schema(), 64).unwrap()))
            .collect()
    }

    /// The kernel of an `Int` join cell on `op` (any other cell's kernel
    /// does not shape its state).
    fn join(op: CmpOp) -> Kernel {
        let condition = JoinCondition::new(&schema(), "k", op, &schema(), "k").unwrap();
        Kernel::JoinPair(JoinSweep::compile(&schema(), &schema(), &condition))
    }

    /// The kernel of an equi-join on `Str(4)` × `Str(8)` keys: the `Typed`
    /// class, which the hash path cannot run, so its sides keep their
    /// pages alone.
    fn typed_join() -> Kernel {
        let (s4, s8) = (DataType::Str(4), DataType::Str(8));
        let left = Schema::build().attr("s", s4).finish().unwrap();
        let right = Schema::build().attr("s", s8).finish().unwrap();
        let condition = JoinCondition::equi(&left, "s", &right, "s").unwrap();
        let sweep = JoinSweep::compile(&left, &right, &condition);
        assert_eq!(sweep.class(), KeyClass::Typed);
        Kernel::JoinPair(sweep)
    }

    /// Pair-sweep kernels and join algorithms covering every side shape and
    /// each way the hash algorithm falls back, with the shape each gives.
    fn pair_cells() -> [(Kernel, JoinAlgo, &'static str); 5] {
        [
            (join(CmpOp::Eq), JoinAlgo::Nested, "column"),
            (join(CmpOp::Eq), JoinAlgo::Hash, "index"),
            (join(CmpOp::Lt), JoinAlgo::Hash, "column"),
            (typed_join(), JoinAlgo::Hash, "pages"),
            (Kernel::CrossPair, JoinAlgo::Hash, "pages"),
        ]
    }

    /// The kernel of a per-page cell: the zero-step identity form.
    fn identity() -> Kernel {
        Kernel::Unary(UnaryKernel::compile(&[], &schema()))
    }

    fn id(page: &Arc<Page>) -> usize {
        Arc::as_ptr(page) as usize
    }

    /// The shape of the side a pair unit reads.
    fn shape(unit: &WorkKind) -> &'static str {
        let WorkKind::Pair { opposite, .. } = unit else {
            panic!("not a pair unit: {unit:?}");
        };
        match &*opposite.read() {
            Received::Index(_) => "index",
            Received::Column(_) => "column",
            Received::Pages(_) => "pages",
        }
    }

    /// The (outer, inner) page pairs a pair unit covers: its new page
    /// against the first `upto` pages of the opposite side.
    fn pairs(unit: &WorkKind) -> Vec<(usize, usize)> {
        let WorkKind::Pair {
            new_page,
            opposite,
            upto,
            new_is_outer,
        } = unit
        else {
            panic!("not a pair unit: {unit:?}");
        };
        let opposite = opposite.read().pages().pages()[..*upto].to_vec();
        let new = id(new_page);
        let pair = |o: &Arc<Page>| {
            if *new_is_outer {
                (new, id(o))
            } else {
                (id(o), new)
            }
        };
        opposite.iter().map(pair).collect()
    }

    fn all_pairs(outer: &[Arc<Page>], inner: &[Arc<Page>]) -> HashSet<(usize, usize)> {
        outer
            .iter()
            .flat_map(|o| inner.iter().map(move |i| (id(o), id(i))))
            .collect()
    }

    #[test]
    fn every_page_pair_is_swept_once_under_interleaved_arrivals() {
        for (kernel, join, want) in pair_cells() {
            let (outer, inner) = (pages(4), pages(3));
            let mut cell = Cell::new(Firing::PairSweep, 2, &kernel, join);
            // Arrivals alternate ports, some batched, one port running ahead.
            assert_eq!(cell.deliver(0, vec![Arc::clone(&outer[0])]), 0);
            assert_eq!(cell.deliver(1, inner[..2].to_vec()), 2);
            assert_eq!(cell.deliver(0, outer[1..3].to_vec()), 2);
            assert_eq!(cell.deliver(1, vec![Arc::clone(&inner[2])]), 1);
            cell.port_done(1);
            assert_eq!(cell.deliver(0, vec![Arc::clone(&outer[3])]), 1);
            cell.port_done(0);
            let units: Vec<WorkKind> = cell.take(cell.pending()).collect();
            assert!(units.iter().all(|u| shape(u) == want), "{kernel:?} {join}");
            let swept: Vec<_> = units.iter().flat_map(pairs).collect();
            assert_eq!(swept.len(), outer.len() * inner.len(), "{want}: {swept:?}");
            assert_eq!(
                swept.into_iter().collect::<HashSet<_>>(),
                all_pairs(&outer, &inner)
            );
        }
    }

    /// A self-join delivers the same pages on both ports: each (page, page)
    /// pair — a page with itself included — is still covered exactly once.
    #[test]
    fn a_self_join_covers_each_pair_once() {
        for (kernel, join, want) in pair_cells() {
            let r = pages(3);
            let mut cell = Cell::new(Firing::PairSweep, 2, &kernel, join);
            assert_eq!(cell.deliver(0, vec![Arc::clone(&r[0])]), 0);
            assert_eq!(cell.deliver(1, r.clone()), 3);
            assert_eq!(cell.deliver(0, r[1..].to_vec()), 2);
            cell.port_done(0);
            cell.port_done(1);
            let units: Vec<WorkKind> = cell.take(cell.pending()).collect();
            let swept: Vec<_> = units.iter().flat_map(pairs).collect();
            assert_eq!(swept.len(), r.len() * r.len(), "{want}: {swept:?}");
            assert_eq!(swept.into_iter().collect::<HashSet<_>>(), all_pairs(&r, &r));
        }
    }

    #[test]
    fn blocking_fire_waits_for_every_port() {
        let (left, right) = (pages(2), pages(1));
        let mut cell = Cell::new(Firing::Complete, 2, &Kernel::UnionFinal, JoinAlgo::Nested);
        assert_eq!(cell.deliver(0, left.clone()), 0);
        assert_eq!(cell.port_done(0), 0);
        assert_eq!(cell.deliver(1, right.clone()), 0);
        assert_eq!((cell.pending(), cell.ready_to_complete()), (0, false));
        assert_eq!(cell.port_done(1), 1);
        let Some(WorkKind::Complete { left: l, right: r }) = cell.take(1).next() else {
            panic!("the blocking unit");
        };
        assert!(l.iter().map(id).eq(left.iter().map(id)));
        assert!(r.iter().map(id).eq(right.iter().map(id)));
        assert!(!cell.ready_to_complete(), "its unit is in flight");
        cell.settle(1);
        assert!(cell.ready_to_complete());

        // Unary, and with no operand page at all: still exactly one fire.
        let mut cell = Cell::new(Firing::Complete, 1, &Kernel::UnionFinal, JoinAlgo::Nested);
        assert!(!cell.ready_to_complete(), "not before its fire");
        assert_eq!(cell.port_done(0), 1);
        assert_eq!(cell.pending(), 1);
    }

    #[test]
    fn never_ready_with_work_pending_or_in_flight() {
        let mut cell = Cell::new(Firing::PerPage, 1, &identity(), JoinAlgo::Nested);
        assert_eq!(cell.deliver(0, pages(3)), 3);
        cell.port_done(0);
        assert!(!cell.ready_to_complete(), "pending");
        let run: Vec<WorkKind> = cell.take(2).collect();
        assert!(!cell.ready_to_complete(), "pending and in flight");
        cell.requeue(run.iter());
        assert_eq!((cell.pending(), cell.in_flight()), (3, 0));
        assert_eq!(cell.take(3).count(), 3);
        assert!(!cell.ready_to_complete(), "in flight");
        cell.settle(3);
        assert!(cell.ready_to_complete());
        cell.complete();
        assert!(!cell.ready_to_complete(), "a cell completes once");

        // A doomed query's cell drops what no run took; the rest drains.
        let mut cell = Cell::new(Firing::PerPage, 1, &identity(), JoinAlgo::Nested);
        cell.deliver(0, pages(4));
        assert_eq!(cell.take(1).count(), 1);
        cell.discard_pending();
        assert_eq!((cell.pending(), cell.in_flight()), (0, 1));
        cell.settle(1);
        assert_eq!(cell.in_flight(), 0);

        // A scan cell has no operand stream: it is ready at once.
        assert!(Cell::new(Firing::Source, 0, &identity(), JoinAlgo::Nested).ready_to_complete());
    }

    /// A cell driven by a random interleaving of the scheduler's operations,
    /// next to a model of what it must have done.
    struct Harness {
        cell: Cell,
        firing: Firing,
        /// Per port: pages not yet delivered, and pages delivered.
        unsent: [Vec<Arc<Page>>; 2],
        sent: [Vec<Arc<Page>>; 2],
        /// Runs taken and neither served nor requeued.
        held: Vec<Vec<WorkKind>>,
        /// What served units covered: page pairs, pages, blocking units.
        swept: HashSet<(usize, usize)>,
        paged: HashSet<usize>,
        finals: Vec<WorkKind>,
    }

    impl Harness {
        fn new(
            firing: Firing,
            ports: usize,
            kernel: &Kernel,
            join: JoinAlgo,
            sizes: [usize; 2],
        ) -> Harness {
            Harness {
                cell: Cell::new(firing, ports, kernel, join),
                firing,
                unsent: [pages(sizes[0]), pages(if ports > 1 { sizes[1] } else { 0 })],
                sent: Default::default(),
                held: Vec::new(),
                swept: HashSet::new(),
                paged: HashSet::new(),
                finals: Vec::new(),
            }
        }

        fn deliver(&mut self, port: usize, n: usize) {
            if self.cell.ports_done[port] || self.unsent[port].is_empty() {
                return;
            }
            let batch: Vec<_> = self.unsent[port]
                .drain(..n.min(self.unsent[port].len()))
                .collect();
            self.sent[port].extend(batch.iter().cloned());
            let fired = self.cell.deliver(port, batch.clone());
            let want = match self.firing {
                Firing::PerPage => batch.len(),
                Firing::PairSweep if self.sent[1 - port].is_empty() => 0,
                Firing::PairSweep => batch.len(),
                _ => 0,
            };
            assert_eq!(fired, want as u64);
        }

        fn end_stream(&mut self, port: usize) {
            if self.cell.ports_done[port] {
                return;
            }
            self.deliver(port, usize::MAX);
            let last = self.cell.ports_done.iter().filter(|&&d| !d).count() == 1;
            let fired = self.cell.port_done(port);
            assert_eq!(fired == 1, last && self.firing == Firing::Complete);
        }

        fn take(&mut self, n: usize) {
            let n = n.min(self.cell.pending());
            if n > 0 {
                let run = self.cell.take(n).collect();
                self.held.push(run);
            }
        }

        fn requeue(&mut self, i: usize) {
            if !self.held.is_empty() {
                let run = self.held.remove(i % self.held.len());
                self.cell.requeue(run.iter());
            }
        }

        fn serve(&mut self, i: usize) {
            if self.held.is_empty() {
                return;
            }
            let run = self.held.remove(i % self.held.len());
            self.cell.settle(run.len());
            for unit in run {
                match &unit {
                    WorkKind::Page(p) => assert!(self.paged.insert(id(p)), "page served twice"),
                    WorkKind::Pair { .. } => {
                        for pair in pairs(&unit) {
                            assert!(self.swept.insert(pair), "pair {pair:?} swept twice");
                        }
                    }
                    WorkKind::Complete { .. } => self.finals.push(unit),
                }
            }
        }

        /// The three invariants, checked after every operation.
        fn check(&self) {
            let held: usize = self.held.iter().map(Vec::len).sum();
            assert_eq!(self.cell.in_flight(), held, "one in-flight count, exact");
            let ended = self.cell.ports_done == [true; 2];
            let fired = held + self.cell.pending() + self.finals.len() > 0;
            if self.firing == Firing::Complete {
                assert!(!fired || ended, "blocking fire before every port ended");
                assert!(self.finals.len() <= 1, "a blocking cell fires once");
            }
            let idle = self.cell.pending() == 0 && held == 0;
            let want_ready = ended && idle && (self.firing != Firing::Complete || fired);
            assert_eq!(self.cell.ready_to_complete(), want_ready);
        }

        /// End every stream, serve everything, and check what was covered.
        fn drain(mut self) {
            for port in 0..2 {
                self.end_stream(port);
                self.check();
            }
            while !self.held.is_empty() || self.cell.pending() > 0 {
                self.take(usize::MAX);
                self.serve(0);
                self.check();
            }
            assert!(self.cell.ready_to_complete());
            let [left, right] = &self.sent;
            match self.firing {
                Firing::PerPage => assert_eq!(self.paged, left.iter().map(id).collect()),
                Firing::PairSweep => assert_eq!(self.swept, all_pairs(left, right)),
                _ => {
                    let [WorkKind::Complete { left: l, right: r }] = &self.finals[..] else {
                        panic!("one blocking unit: {:?}", self.finals);
                    };
                    assert!(l.iter().map(id).eq(left.iter().map(id)));
                    assert!(r.iter().map(id).eq(right.iter().map(id)));
                }
            }
            self.cell.complete();
            assert!(!self.cell.ready_to_complete());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random delivery / take / requeue / serve / end-of-stream
        /// interleavings over all three firing classes, the pair sweep over
        /// every side shape (key column, hash index, pages alone for a
        /// `Typed` join and for a cross product): the in-flight
        /// count is exact, a blocking cell fires once and only after every
        /// port ended, a cell is ready exactly when nothing is left to do,
        /// and every page pair (page, blocking operand) is served exactly
        /// once however often its unit was requeued.
        #[test]
        fn firing_rule_holds_under_random_interleavings(
            class in 0usize..7,
            sizes in (0usize..6, 0usize..6),
            ops in prop::collection::vec((0u8..5, 0usize..4), 0..64),
        ) {
            let (firing, ports, kernel, join) = vec![
                (Firing::PerPage, 1, identity(), JoinAlgo::Nested),
                (Firing::PairSweep, 2, join(CmpOp::Eq), JoinAlgo::Nested),
                (Firing::PairSweep, 2, join(CmpOp::Eq), JoinAlgo::Hash),
                (Firing::PairSweep, 2, typed_join(), JoinAlgo::Nested),
                (Firing::PairSweep, 2, Kernel::CrossPair, JoinAlgo::Nested),
                (Firing::Complete, 1, Kernel::UnionFinal, JoinAlgo::Nested),
                (Firing::Complete, 2, Kernel::UnionFinal, JoinAlgo::Nested),
            ]
            .swap_remove(class);
            let mut h = Harness::new(firing, ports, &kernel, join, [sizes.0, sizes.1]);
            h.check();
            for (op, arg) in ops {
                match op {
                    0 => h.deliver(arg % ports, 1 + arg / ports),
                    1 => h.end_stream(arg % ports),
                    2 => h.take(arg + 1),
                    3 => h.requeue(arg),
                    _ => h.serve(arg),
                }
                h.check();
            }
            h.drain();
        }
    }
}
