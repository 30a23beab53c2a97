//! Instruction-processor logic.
//!
//! An IP executes the opcode of each instruction packet on the data pages
//! it carries (real kernels from `df-query::ops`), buffers result tuples,
//! emits full result pages as Fig-4.4 result packets, and — for joins —
//! runs the §4.2 protocol: hold the current outer page, join broadcast
//! inner pages as they arrive, track them in the IRC vector, ignore
//! broadcasts when local memory is full and catch up on the missed pages
//! once the last-inner-page indicator arrives, then request another outer.

use df_core::instr::InstrId;
use df_relalg::{Page, TupleBuf};
use df_sim::SimTime;
use df_storage::PageId;

use crate::machine::{Event, IrcEntry, Loc, Msg, Node, PacketKind, PendingWork, RingMachine};
use crate::packet::{result_packet_size, ControlMessage, CONTROL_PACKET_SIZE};

impl RingMachine {
    /// Track peak compute concurrency.
    fn note_busy(&mut self) {
        self.busy_ips += 1;
        let granted: usize = self.ic_instrs.iter().map(|st| st.granted.len()).sum();
        self.metrics.peak_busy_ips = self.metrics.peak_busy_ips.max(self.busy_ips as u64);
        self.metrics.peak_granted_ips = self.metrics.peak_granted_ips.max(granted as u64);
    }

    /// Handle a message addressed to IP `ip`.
    pub(crate) fn ip_handle(&mut self, now: SimTime, ip: usize, msg: Msg) {
        match msg {
            Msg::Packet { instr, kind } => {
                self.ips[ip].instr = Some(instr);
                match kind {
                    PacketKind::UnaryPage { page, flush } => {
                        self.ips[ip]
                            .pending_input
                            .push_back(PendingWork::Unary { page, flush });
                        self.ip_try_start(now, ip);
                    }
                    PacketKind::JoinOuter {
                        outer_idx,
                        page,
                        first_inner,
                    } => {
                        let st = &mut self.ips[ip];
                        debug_assert!(st.outer.is_none(), "IP already holds an outer page");
                        st.outer = Some((outer_idx, page));
                        st.irc.clear();
                        st.joined_count = 0;
                        st.catchup_in_flight = None;
                        st.advance_in_flight = false;
                        st.inner_queue.clear();
                        if let Some((idx, ipage)) = first_inner {
                            self.ip_enqueue_inner(ip, idx, ipage);
                        }
                        self.ip_try_start(now, ip);
                    }
                    PacketKind::WholeRelation { pages } => {
                        self.ips[ip]
                            .pending_input
                            .push_back(PendingWork::Whole { pages });
                        self.ips[ip].flush_pending = true;
                        self.ip_try_start(now, ip);
                    }
                    PacketKind::FlushNow => {
                        self.ips[ip].flush_pending = true;
                        self.ip_try_start(now, ip);
                    }
                }
            }
            Msg::BroadcastInner { instr, idx, page } => {
                self.ip_on_broadcast(now, ip, instr, idx, page);
            }
            Msg::InnerComplete { instr, total } => {
                if self.ips[ip].instr == Some(instr) {
                    self.ips[ip].inner_total = Some(total);
                    self.ips[ip].advance_in_flight = false;
                    self.ip_try_start(now, ip);
                }
            }
            other => panic!("IP received unexpected message {other:?}"),
        }
    }

    /// A broadcast inner page arrived (the IP filters by query id, §4.2).
    fn ip_on_broadcast(
        &mut self,
        now: SimTime,
        ip: usize,
        instr: InstrId,
        idx: usize,
        page: PageId,
    ) {
        let st = &mut self.ips[ip];
        if st.instr != Some(instr) || st.outer.is_none() {
            return; // not participating (query-id filter)
        }
        // Duplicate suppression: already joined, queued, or being joined.
        if idx < st.irc.len() && st.irc[idx].joined {
            return;
        }
        if st.current_inner == Some(idx) || st.inner_queue.iter().any(|&(i, _)| i == idx) {
            return;
        }
        let was_missed = idx < st.irc.len() && st.irc[idx].missed;
        // Local memory: the held outer + queued inners + the inner being
        // joined right now.
        let held = 1 + st.inner_queue.len() + usize::from(st.current_inner.is_some());
        if held + 1 > self.params.ip_memory_pages {
            // "If the IP does not have room in its local memory for the
            // broadcast page, it will ignore the packet." — noted in the
            // IRC vector for the catch-up phase.
            Self::ensure_irc(&mut st.irc, idx);
            if !st.irc[idx].missed {
                st.irc[idx].missed = true;
                self.metrics.pages_missed += 1;
            }
            // The page was seen on the ring: the advance request (if any)
            // is satisfied; the catch-up phase will fetch it later.
            st.advance_in_flight = false;
            return;
        }
        if was_missed && st.catchup_in_flight == Some(idx) {
            st.catchup_in_flight = None;
        }
        self.ip_enqueue_inner(ip, idx, page);
        self.ip_try_start(now, ip);
    }

    /// Queue an inner page for joining.
    fn ip_enqueue_inner(&mut self, ip: usize, idx: usize, page: PageId) {
        let st = &mut self.ips[ip];
        Self::ensure_irc(&mut st.irc, idx);
        st.irc[idx].missed = false;
        st.inner_queue.push_back((idx, page));
        st.advance_in_flight = false;
    }

    fn ensure_irc(irc: &mut Vec<IrcEntry>, idx: usize) {
        if irc.len() <= idx {
            irc.resize(idx + 1, IrcEntry::default());
        }
    }

    /// Start the next computation, or advance the join protocol, or flush.
    fn ip_try_start(&mut self, now: SimTime, ip: usize) {
        if self.ips[ip].busy {
            return;
        }
        // 1. Explicit pending work (unary pages, whole-relation finalizers).
        if let Some(work) = self.ips[ip].pending_input.pop_front() {
            match work {
                PendingWork::Unary { page, flush } => {
                    self.ips[ip].flush_pending |= flush;
                    let instr = self.ips[ip].instr.expect("working IP has an instruction");
                    let code = &self.program.instructions[instr];
                    let results = code
                        .kernel
                        .run_unit_raw(&[self.store.get(page)], &code.output_schema);
                    // Kernel-aware service time: a fused span charges the
                    // sum of its step costs (n per step); plain unary
                    // kernels charge n.
                    let ops = code.kernel.tuple_ops(&[self.store.get(page).len()]);
                    let dur = self.compute_time_for(&[page], ops);
                    self.ips[ip].current_results = Some(results);
                    self.ips[ip].busy = true;
                    self.note_busy();
                    self.metrics.ip_busy += dur;
                    self.queue.schedule(now + dur, Event::IpCompute { ip });
                }
                PendingWork::Whole { pages } => {
                    let instr = self.ips[ip].instr.expect("working IP has an instruction");
                    let code = &self.program.instructions[instr];
                    let inputs: Vec<Vec<&Page>> = pages
                        .iter()
                        .map(|slot| slot.iter().map(|&p| self.store.get(p)).collect())
                        .collect();
                    let results = code.kernel.run_final_raw(&inputs, &code.output_schema);
                    let counts: Vec<usize> = (inputs.iter())
                        .map(|port| port.iter().map(|p| p.len()).sum())
                        .collect();
                    let ops = code.kernel.tuple_ops(&counts);
                    let flat: Vec<PageId> = pages.iter().flatten().copied().collect();
                    let dur = self.compute_time_for(&flat, ops);
                    self.ips[ip].current_results = Some(results);
                    self.ips[ip].busy = true;
                    self.note_busy();
                    self.metrics.ip_busy += dur;
                    self.queue.schedule(now + dur, Event::IpCompute { ip });
                }
            }
            return;
        }
        // 2. Join work from the inner queue.
        if self.ips[ip].outer.is_some() {
            if let Some((idx, ipage)) = self.ips[ip].inner_queue.pop_front() {
                let (_, opage) = self.ips[ip].outer.expect("checked");
                let instr = self.ips[ip].instr.expect("working IP has an instruction");
                let code = &self.program.instructions[instr];
                let (outer, inner) = (self.store.get(opage), self.store.get(ipage));
                let mut results = TupleBuf::new(code.output_schema.clone());
                code.kernel
                    .run_sweep_raw_into(outer, [inner], true, &mut results);
                // Kernel-aware service time: a join or cross product
                // charges the n·m sweep of the page pair.
                let ops = code.kernel.tuple_ops(&[outer.len(), inner.len()]);
                let dur = self.compute_time_for(&[opage, ipage], ops);
                self.ips[ip].current_inner = Some(idx);
                self.ips[ip].current_results = Some(results);
                self.ips[ip].busy = true;
                self.note_busy();
                self.metrics.ip_busy += dur;
                self.queue.schedule(now + dur, Event::IpCompute { ip });
                return;
            }
            // Idle with an outer: drive the protocol forward.
            self.ip_join_advance(now, ip);
            return;
        }
        // 3. Nothing to compute: honour a pending flush.
        if self.ips[ip].flush_pending {
            self.ip_flush(now, ip);
        }
    }

    /// A computation finished: buffer results, update the IRC, continue.
    pub(crate) fn ip_compute_done(&mut self, now: SimTime, ip: usize) {
        self.ips[ip].busy = false;
        self.busy_ips -= 1;
        let mut results = self.ips[ip]
            .current_results
            .take()
            .expect("computing IP has a result batch");
        let instr = self.ips[ip].instr.expect("computing IP has an instruction");
        let schema = self.program.instructions[instr].output_schema.clone();
        let page_size = self.params.page_size;
        // Drain result images into the output buffer page; emit full pages.
        // Pure byte copies — nothing is decoded on the way out.
        while !results.is_empty() {
            let buf = self.ips[ip].out_buffer.get_or_insert_with(|| {
                Page::new(schema.clone(), page_size).expect("output page size validated")
            });
            results.drain_into(buf);
            if buf.is_full() {
                let full = self.ips[ip].out_buffer.take().expect("just filled");
                self.ip_emit_page(now, ip, full);
            }
        }
        match self.ips[ip].current_inner.take() {
            Some(idx) => {
                // Join step: update the IRC and keep the protocol moving.
                let st = &mut self.ips[ip];
                Self::ensure_irc(&mut st.irc, idx);
                if !st.irc[idx].joined {
                    st.irc[idx].joined = true;
                    st.joined_count += 1;
                }
                self.ip_try_start(now, ip);
            }
            None => {
                // Unary / whole-relation packet: "the IP sends a control
                // packet to the IC which sent the instruction packet …
                // an indication that the IP has finished the task assigned
                // and is ready for further work." (§4.2)
                if self.ips[ip].flush_pending {
                    self.ip_flush(now, ip);
                } else {
                    self.ip_send_control(now, ip, instr, ControlMessage::Done);
                }
            }
        }
    }

    /// The smallest inner index this IP still needs: not joined, not
    /// missed (those go through catch-up), not queued, not being joined.
    /// Indexes at or beyond `irc.len()` have never been seen at all.
    fn ip_next_needed(&self, ip: usize) -> usize {
        let st = &self.ips[ip];
        for idx in 0..st.irc.len() {
            let e = st.irc[idx];
            if e.joined || e.missed {
                continue;
            }
            if st.current_inner == Some(idx) || st.inner_queue.iter().any(|&(i, _)| i == idx) {
                continue;
            }
            return idx;
        }
        st.irc.len()
    }

    /// Idle join IP with an outer page: request what it needs next.
    fn ip_join_advance(&mut self, now: SimTime, ip: usize) {
        let instr = self.ips[ip].instr.expect("join IP has an instruction");
        if self.ips[ip].catchup_in_flight.is_some() {
            return; // waiting for a catch-up page
        }
        if let Some(total) = self.ips[ip].inner_total {
            if self.ips[ip].joined_count >= total {
                // "When the IP has joined the current page of the outer
                // relation with all the pages of the inner relation, it will
                // first zero its IRC vector and then … request another page
                // of the outer relation."
                let st = &mut self.ips[ip];
                st.outer = None;
                st.irc.clear();
                st.joined_count = 0;
                self.ip_send_control(now, ip, instr, ControlMessage::RequestOuter);
                return;
            }
            // Catch-up phase: request the first missed, unjoined page.
            let missed = self.ips[ip].irc.iter().position(|e| e.missed && !e.joined);
            if let Some(idx) = missed {
                self.ips[ip].catchup_in_flight = Some(idx);
                self.ip_send_control(
                    now,
                    ip,
                    instr,
                    ControlMessage::RequestMissed { index: idx as u32 },
                );
                return;
            }
            let need = self.ip_next_needed(ip);
            if need < total && !self.ips[ip].advance_in_flight {
                self.ips[ip].advance_in_flight = true;
                self.ip_send_control(
                    now,
                    ip,
                    instr,
                    ControlMessage::RequestInner { index: need as u32 },
                );
            }
            // Otherwise the remaining pages are queued or in flight.
        } else if !self.ips[ip].advance_in_flight {
            let need = self.ip_next_needed(ip);
            self.ips[ip].advance_in_flight = true;
            self.ip_send_control(
                now,
                ip,
                instr,
                ControlMessage::RequestInner { index: need as u32 },
            );
        }
    }

    /// Emit the partial output page (if any) and report Done.
    fn ip_flush(&mut self, now: SimTime, ip: usize) {
        self.ips[ip].flush_pending = false;
        if let Some(partial) = self.ips[ip].out_buffer.take() {
            if !partial.is_empty() {
                self.ip_emit_page(now, ip, partial);
            }
        }
        let instr = self.ips[ip].instr.expect("flushing IP has an instruction");
        self.ip_send_control(now, ip, instr, ControlMessage::Done);
    }

    /// Ship one output page as a result packet (Fig 4.4) — or, with the §5
    /// direct-routing extension, park full pages at this IP and send only a
    /// control-sized notice.
    fn ip_emit_page(&mut self, now: SimTime, ip: usize, page: Page) {
        let full = page.is_full();
        let bytes = page.wire_bytes();
        let id = self.store.put(page);
        let instr = self.ips[ip].instr.expect("emitting IP has an instruction");
        let dest_ic = match self.program.instructions[instr].parent {
            Some((parent, _)) => self.ic_instrs[parent].ic,
            None => self.ic_instrs[instr].ic,
        };
        self.metrics.result_packets += 1;
        let has_parent = self.program.instructions[instr].parent.is_some();
        if self.params.direct_routing && has_parent && full {
            // §5: "route some of the data pages … directly from one IP to
            // another without first sending the page to an IC". The page
            // body stays here; the IC gets a control-sized availability
            // notice and the body travels IP→IP at dispatch time.
            self.loc.insert(id, Loc::AtIp(ip));
            self.metrics.direct_routed_pages += 1;
            self.send_outer(
                now,
                Node::Ip(ip),
                Node::Ic(dest_ic),
                CONTROL_PACKET_SIZE,
                Msg::Result {
                    from_ip: ip,
                    producer: instr,
                    page: id,
                },
            );
        } else {
            self.send_outer(
                now,
                Node::Ip(ip),
                Node::Ic(dest_ic),
                result_packet_size(bytes),
                Msg::Result {
                    from_ip: ip,
                    producer: instr,
                    page: id,
                },
            );
        }
    }

    /// Send a Fig-4.5 control packet to the controlling IC.
    fn ip_send_control(
        &mut self,
        now: SimTime,
        ip: usize,
        instr: InstrId,
        message: ControlMessage,
    ) {
        let ic = self.ic_instrs[instr].ic;
        self.metrics.control_packets += 1;
        self.send_outer(
            now,
            Node::Ip(ip),
            Node::Ic(ic),
            CONTROL_PACKET_SIZE,
            Msg::Control {
                from_ip: ip,
                instr,
                message,
            },
        );
    }
}
