//! Instruction-controller logic: the §4.2 protocol.
//!
//! An IC builds page tables for its instruction's operands, compacts
//! arriving partial result pages into full pages, acquires IPs from the MC,
//! distributes instruction packets, answers the join protocol's inner-page
//! requests (broadcasting with the "soon afterwards" duplicate-suppression
//! rule), sets flush-when-done on final packets, and releases IPs back to
//! the MC.

use df_core::instr::{firing, is_intermediate, parent, InstrId};
use df_query::Firing;
use df_relalg::{Page, TupleBuf};
use df_sim::SimTime;
use df_storage::{PageId, PageTable};

use crate::machine::{Loc, Msg, Node, PacketKind, RingMachine};
use crate::packet::{
    instruction_packet_size, result_packet_size, ControlMessage, CONTROL_PACKET_SIZE,
};

impl RingMachine {
    /// Handle a message addressed to IC `ic`.
    pub(crate) fn ic_handle(&mut self, now: SimTime, ic: usize, msg: Msg) {
        match msg {
            Msg::AssignInstr { instr } => {
                debug_assert_eq!(self.ic_instrs[instr].ic, ic);
                self.ic_instrs[instr].active = true;
                self.ic_reevaluate(now, instr);
                self.ic_check_done(now, instr);
            }
            Msg::IpGrant { instr, ip } => {
                let st = &mut self.ic_instrs[instr];
                st.outstanding = st.outstanding.saturating_sub(1);
                if st.done {
                    // Instruction finished while the grant was in flight.
                    self.send_inner(now, Node::Ic(ic), Node::Mc, Msg::IpRelease { ip });
                    return;
                }
                st.granted.push(ip);
                self.ips[ip].instr = Some(instr);
                self.ic_give_work(now, instr, ip);
            }
            Msg::Result {
                from_ip,
                producer,
                page,
            } => {
                debug_assert!(from_ip < self.params.ips, "result from unknown IP");
                self.ic_receive_result(now, ic, producer, page);
            }
            Msg::StreamComplete { instr, slot } => {
                self.ic_flush_compaction(now, instr, slot);
                self.ic_instrs[instr].operands[slot].mark_complete();
                self.ic_on_operand_complete(now, instr, slot);
            }
            Msg::Control {
                from_ip,
                instr,
                message,
            } => match message {
                ControlMessage::Done => {
                    let st = &mut self.ic_instrs[instr];
                    if let Some(pos) = st.flushing.iter().position(|&p| p == from_ip) {
                        st.flushing.swap_remove(pos);
                        self.ic_release_ip(now, instr, from_ip);
                    } else {
                        self.ic_give_work(now, instr, from_ip);
                    }
                }
                ControlMessage::RequestInner { index } => {
                    self.ic_serve_inner(now, instr, from_ip, index as usize, false);
                }
                ControlMessage::RequestMissed { index } => {
                    self.ic_serve_inner(now, instr, from_ip, index as usize, true);
                }
                ControlMessage::RequestOuter => {
                    self.ic_instrs[instr].outers_done += 1;
                    self.ic_give_work(now, instr, from_ip);
                    self.ic_check_done(now, instr);
                }
            },
            other => panic!("IC received unexpected message {other:?}"),
        }
    }

    // --------------------------------------------------------- result flow

    /// A result packet arrived: register the page with the consuming
    /// operand (compacting partial pages, §4.2) or collect it as a query
    /// result.
    fn ic_receive_result(&mut self, now: SimTime, ic: usize, producer: InstrId, page: PageId) {
        match parent(&self.graph, producer) {
            None => {
                // Root output: collect.
                let q = self.graph.cells[producer].owner;
                self.ic_store_page(now, ic, page);
                self.query_results[q].push(page);
            }
            Some((parent, slot)) => {
                debug_assert_eq!(self.ic_instrs[parent].ic, ic);
                // Shared handle — the page body is never deep-copied here.
                let incoming = self.store.get_arc(page);
                let full = incoming.is_full();
                let direct = matches!(self.loc.get(&page), Some(Loc::AtIp(_)));
                if full {
                    // Fast path: register without recopying.
                    if !direct {
                        self.ic_store_page(now, ic, page);
                    }
                    self.ic_register_operand_page(now, parent, slot, page);
                } else {
                    // Compact partial pages into full pages: whole encoded
                    // images are memcpy'd, never decoded.
                    let mut produced: Vec<PageId> = Vec::new();
                    {
                        let page_size = self.params.page_size;
                        let st = &mut self.ic_instrs[parent];
                        let schema = st.operands[slot].schema().clone();
                        let mut batch = TupleBuf::new(schema.clone());
                        for t in incoming.tuple_refs() {
                            batch.push_ref(&t);
                        }
                        while !batch.is_empty() {
                            let buf = st.compaction[slot].get_or_insert_with(|| {
                                Page::new(schema.clone(), page_size)
                                    .expect("operand page size validated")
                            });
                            batch.drain_into(buf);
                            if buf.is_full() {
                                let full_page = st.compaction[slot].take().expect("just filled");
                                produced.push(self.store.put(full_page));
                            }
                        }
                    }
                    // The partial page itself is dead after compaction.
                    self.reclaim_page(page);
                    self.store.remove(page);
                    for id in produced {
                        self.ic_store_page(now, ic, id);
                        self.ic_register_operand_page(now, parent, slot, id);
                    }
                }
            }
        }
    }

    /// Flush the remainder of a compaction buffer when the producer
    /// stream terminates.
    fn ic_flush_compaction(&mut self, now: SimTime, instr: InstrId, slot: usize) {
        let ic = self.ic_instrs[instr].ic;
        if let Some(buf) = self.ic_instrs[instr].compaction[slot].take() {
            if !buf.is_empty() {
                let id = self.store.put(buf);
                self.ic_store_page(now, ic, id);
                self.ic_register_operand_page(now, instr, slot, id);
            }
        }
    }

    /// Register a (full or final-partial) page in an operand table and
    /// react: hand work to parked IPs, serve deferred join requests, and
    /// re-evaluate the IP demand.
    fn ic_register_operand_page(
        &mut self,
        now: SimTime,
        instr: InstrId,
        slot: usize,
        page: PageId,
    ) {
        self.ic_instrs[instr].operands[slot].push(page);
        match firing(&self.graph.cells[instr]) {
            Firing::PerPage => {
                while !self.ic_instrs[instr].parked.is_empty()
                    && self.ic_instrs[instr].operands[0].available() > 0
                {
                    let ip = self.ic_instrs[instr].parked.remove(0);
                    self.ic_give_work(now, instr, ip);
                }
            }
            Firing::PairSweep => {
                if slot == 1 {
                    let idx = self.ic_instrs[instr].operands[1].len() - 1;
                    while self.ic_instrs[instr].last_broadcast.len() <= idx {
                        self.ic_instrs[instr].last_broadcast.push(None);
                    }
                    // Serve advance requests that were waiting for this page.
                    let waiting: Vec<usize> = {
                        let st = &mut self.ic_instrs[instr];
                        let hit: Vec<usize> = st
                            .deferred_requests
                            .iter()
                            .filter(|&&(_, i)| i == idx)
                            .map(|&(ip, _)| ip)
                            .collect();
                        st.deferred_requests.retain(|&(_, i)| i != idx);
                        hit
                    };
                    if !waiting.is_empty() {
                        self.ic_serve_inner(now, instr, waiting[0], idx, false);
                    }
                }
                // Any parked IP can now potentially take an outer.
                while !self.ic_instrs[instr].parked.is_empty() {
                    let st = &self.ic_instrs[instr];
                    let outer_ready = st.outer_next < st.operands[0].len();
                    let inner_ready = !st.operands[1].is_empty();
                    if !(outer_ready && inner_ready) {
                        break;
                    }
                    let ip = self.ic_instrs[instr].parked.remove(0);
                    self.ic_give_work(now, instr, ip);
                }
            }
            Firing::Complete | Firing::Source => {}
        }
        self.ic_reevaluate(now, instr);
    }

    /// An operand stream completed.
    fn ic_on_operand_complete(&mut self, now: SimTime, instr: InstrId, slot: usize) {
        let class = firing(&self.graph.cells[instr]);
        match class {
            Firing::PairSweep if slot == 1 && !self.ic_instrs[instr].inner_complete_sent => {
                self.ic_instrs[instr].inner_complete_sent = true;
                let total = self.ic_instrs[instr].operands[1].len();
                let targets = self.ic_instrs[instr].granted.clone();
                let ic = self.ic_instrs[instr].ic;
                self.ic_instrs[instr]
                    .deferred_requests
                    .retain(|&(_, i)| i < total);
                if !targets.is_empty() {
                    self.broadcast_outer(now, Node::Ic(ic), CONTROL_PACKET_SIZE, &targets, || {
                        Msg::InnerComplete { instr, total }
                    });
                }
            }
            Firing::PerPage if slot == 0 => {
                // Parked IPs with nothing left to do must be flushed.
                while self.ic_instrs[instr].operands[0].available() == 0
                    && !self.ic_instrs[instr].parked.is_empty()
                {
                    let ip = self.ic_instrs[instr].parked.remove(0);
                    self.ic_flush_ip(now, instr, ip);
                }
            }
            Firing::Complete => {
                let st = &self.ic_instrs[instr];
                if st.operands.iter().all(PageTable::is_complete) && !st.final_sent {
                    if let Some(ip) = self.ic_instrs[instr].parked.pop() {
                        self.ic_send_whole(now, instr, ip);
                    } else {
                        self.ic_reevaluate(now, instr);
                    }
                }
            }
            _ => {}
        }
        // Join: parked IPs may need flushing when both streams end.
        if class == Firing::PairSweep {
            let st = &self.ic_instrs[instr];
            if st.operands.iter().all(PageTable::is_complete)
                && st.outer_next >= st.operands[0].len()
            {
                while let Some(ip) = self.ic_instrs[instr].parked.pop() {
                    self.ic_flush_ip(now, instr, ip);
                }
            }
        }
        self.ic_reevaluate(now, instr);
        self.ic_check_done(now, instr);
    }

    // ------------------------------------------------------------ dispatch

    /// Give `ip` its next piece of work for `instr` (or park / flush it).
    fn ic_give_work(&mut self, now: SimTime, instr: InstrId, ip: usize) {
        match firing(&self.graph.cells[instr]) {
            Firing::PerPage => {
                let next = self.ic_instrs[instr].operands[0].take_next();
                match next {
                    Some(page) => {
                        let flush = self.ic_instrs[instr].operands[0].exhausted();
                        if flush {
                            self.ic_instrs[instr].flushing.push(ip);
                        }
                        self.ic_send_instruction(
                            now,
                            instr,
                            ip,
                            &[page],
                            PacketKind::UnaryPage { page, flush },
                        );
                        // Single-use intermediate pages are dead at the IC
                        // once shipped.
                        if is_intermediate(&self.graph.cells[instr], 0) {
                            self.reclaim_page(page);
                        }
                    }
                    None if self.ic_instrs[instr].operands[0].is_complete() => {
                        self.ic_flush_ip(now, instr, ip);
                    }
                    None => self.ic_instrs[instr].parked.push(ip),
                }
            }
            Firing::PairSweep => self.ic_assign_outer(now, instr, ip),
            Firing::Complete => {
                let ready = self.ic_instrs[instr]
                    .operands
                    .iter()
                    .all(PageTable::is_complete);
                if ready && !self.ic_instrs[instr].final_sent {
                    self.ic_send_whole(now, instr, ip);
                } else {
                    self.ic_instrs[instr].parked.push(ip);
                }
            }
            Firing::Source => unreachable!("scans are operands, not instructions"),
        }
    }

    /// Hand `ip` a new outer page (join protocol), or park / flush it.
    fn ic_assign_outer(&mut self, now: SimTime, instr: InstrId, ip: usize) {
        let (inner_len, inner_complete, outer_len, outer_complete) = {
            let st = &self.ic_instrs[instr];
            (
                st.operands[1].len(),
                st.operands[1].is_complete(),
                st.operands[0].len(),
                st.operands[0].is_complete(),
            )
        };
        // Page-level enabling: need at least one inner page (§3.2) — unless
        // the inner is complete and empty, in which case the join is empty.
        if inner_len == 0 && !inner_complete {
            self.ic_instrs[instr].parked.push(ip);
            return;
        }
        if inner_complete && inner_len == 0 {
            self.ic_flush_ip(now, instr, ip);
            return;
        }
        let st = &self.ic_instrs[instr];
        if st.outer_next < outer_len {
            let idx = st.outer_next;
            let outer_page = st.operands[0].pages()[idx];
            // The first packet to an IP carries the first inner page too
            // ("the two operands in the packet"); on re-assignment the IP
            // re-requests inner pages through the broadcast stream.
            let first_inner = if self.ips[ip].outer.is_none() && self.ips[ip].irc.is_empty() {
                Some((0usize, st.operands[1].pages()[0]))
            } else {
                None
            };
            self.ic_instrs[instr].outer_next += 1;
            self.ic_instrs[instr].outer_assigned_at.insert(ip, now);
            let mut pages = vec![outer_page];
            if let Some((_, p)) = first_inner {
                pages.push(p);
            }
            self.ic_send_instruction(
                now,
                instr,
                ip,
                &pages,
                PacketKind::JoinOuter {
                    outer_idx: idx,
                    page: outer_page,
                    first_inner,
                },
            );
        } else if !outer_complete {
            self.ic_instrs[instr].parked.push(ip);
        } else {
            self.ic_flush_ip(now, instr, ip);
        }
    }

    /// Ship a whole-relation packet (blocking kernels run on one IP).
    fn ic_send_whole(&mut self, now: SimTime, instr: InstrId, ip: usize) {
        self.ic_instrs[instr].final_sent = true;
        self.ic_instrs[instr].flushing.push(ip);
        let pages: Vec<Vec<PageId>> = self.ic_instrs[instr]
            .operands
            .iter()
            .map(|t| t.pages().to_vec())
            .collect();
        let flat: Vec<PageId> = pages.iter().flatten().copied().collect();
        self.ic_send_instruction(now, instr, ip, &flat, PacketKind::WholeRelation { pages });
    }

    /// Tell `ip` to flush its output buffer and report done.
    fn ic_flush_ip(&mut self, now: SimTime, instr: InstrId, ip: usize) {
        self.ic_instrs[instr].flushing.push(ip);
        self.ic_send_instruction(now, instr, ip, &[], PacketKind::FlushNow);
    }

    /// Build and send an instruction packet (Fig 4.3) to `ip`, staging the
    /// operand pages out of the storage hierarchy first. Pages homed at an
    /// IP (§5 direct routing) travel IP→IP instead of inflating the packet.
    fn ic_send_instruction(
        &mut self,
        now: SimTime,
        instr: InstrId,
        ip: usize,
        pages: &[PageId],
        kind: PacketKind,
    ) {
        let ic = self.ic_instrs[instr].ic;
        let mut ready = now;
        let mut packet_page_bytes: Vec<usize> = Vec::new();
        for &p in pages {
            if let Some(Loc::AtIp(home)) = self.loc.get(&p).copied() {
                // Direct IP→IP transfer of the page body.
                let bytes = self.store.wire_bytes(p);
                let t =
                    self.outer_ring
                        .send(now, self.params.ics + home, self.params.ics + ip, bytes);
                ready = ready.max(t);
                self.loc.insert(p, Loc::AtIp(ip));
            } else {
                let t = self.ic_fetch_page(now, ic, p);
                ready = ready.max(t);
                packet_page_bytes.push(self.store.wire_bytes(p));
            }
        }
        let bytes = instruction_packet_size(&packet_page_bytes);
        self.metrics.instruction_packets += 1;
        if self.ic_instrs[instr].first_packet.is_none() {
            self.ic_instrs[instr].first_packet = Some(now);
        }
        if std::env::var_os("DF_TRACE").is_some() {
            eprintln!(
                "{:9.3}s SEND instr={instr} ({}) ip={ip} ready={:9.3}s kind={kind:?}",
                now.as_secs_f64(),
                self.graph.cells[instr].op_name(),
                ready.as_secs_f64()
            );
        }
        self.send_outer(
            ready,
            Node::Ic(ic),
            Node::Ip(ip),
            bytes,
            Msg::Packet { instr, kind },
        );
    }

    /// Serve an inner-page request (join protocol): broadcast with the
    /// "soon afterwards" duplicate-suppression window, always honour
    /// catch-up requests, defer requests for pages not yet produced.
    fn ic_serve_inner(
        &mut self,
        now: SimTime,
        instr: InstrId,
        from_ip: usize,
        idx: usize,
        missed: bool,
    ) {
        let ic = self.ic_instrs[instr].ic;
        let produced = self.ic_instrs[instr].operands[1].len();
        if idx >= produced {
            if self.ic_instrs[instr].operands[1].is_complete() {
                // Requested past the end after completion (race): re-announce.
                let total = produced;
                self.send_outer(
                    now,
                    Node::Ic(ic),
                    Node::Ip(from_ip),
                    CONTROL_PACKET_SIZE,
                    Msg::InnerComplete { instr, total },
                );
            } else {
                self.ic_instrs[instr].deferred_requests.push((from_ip, idx));
            }
            return;
        }
        let page = self.ic_instrs[instr].operands[1].pages()[idx];
        if missed {
            // Catch-up: unicast, always served.
            let ready = self.ic_fetch_page(now, ic, page);
            let bytes = instruction_packet_size(&[self.store.wire_bytes(page)]);
            self.send_outer(
                ready,
                Node::Ic(ic),
                Node::Ip(from_ip),
                bytes,
                Msg::BroadcastInner { instr, idx, page },
            );
            return;
        }
        while self.ic_instrs[instr].last_broadcast.len() <= idx {
            self.ic_instrs[instr].last_broadcast.push(None);
        }
        if let Some(t) = self.ic_instrs[instr].last_broadcast[idx] {
            // "Subsequent requests for the same page which are received by
            // the IC soon afterwards can be ignored." Safe only if the
            // requester was already holding its current outer page when the
            // broadcast went out — otherwise it ignored that broadcast
            // without an IRC record and would starve.
            let assigned = self.ic_instrs[instr]
                .outer_assigned_at
                .get(&from_ip)
                .copied()
                .unwrap_or(SimTime::ZERO);
            if now.saturating_since(t) < self.params.rebroadcast_window && t >= assigned {
                self.metrics.requests_ignored += 1;
                return;
            }
        }
        self.ic_instrs[instr].last_broadcast[idx] = Some(now);
        self.metrics.broadcasts += 1;
        let ready = self.ic_fetch_page(now, ic, page);
        let bytes = instruction_packet_size(&[self.store.wire_bytes(page)]);
        let targets = self.ic_instrs[instr].granted.clone();
        self.broadcast_outer(ready, Node::Ic(ic), bytes, &targets, || {
            Msg::BroadcastInner { instr, idx, page }
        });
    }

    // --------------------------------------------------- demand & teardown

    /// Request IPs from the MC to match the instruction's available work.
    fn ic_reevaluate(&mut self, now: SimTime, instr: InstrId) {
        let st = &self.ic_instrs[instr];
        if !st.active || st.done {
            return;
        }
        let desired = match firing(&self.graph.cells[instr]) {
            Firing::PerPage => st.operands[0].available().min(self.params.ips),
            Firing::PairSweep => {
                if st.operands[1].is_empty() && !st.operands[1].is_complete() {
                    0
                } else {
                    (st.operands[0].len() - st.outer_next).min(self.params.ips)
                }
            }
            Firing::Complete => {
                if st.operands.iter().all(PageTable::is_complete) && !st.final_sent {
                    1
                } else {
                    0
                }
            }
            Firing::Source => unreachable!("scans are operands, not instructions"),
        };
        let have = st.granted.len() + st.outstanding;
        if desired > have {
            let want = desired - have;
            let ic = st.ic;
            self.ic_instrs[instr].outstanding += want;
            self.send_inner(
                now,
                Node::Ic(ic),
                Node::Mc,
                Msg::IpRequest { ic, instr, want },
            );
        }
    }

    /// Return `ip` to the MC pool.
    fn ic_release_ip(&mut self, now: SimTime, instr: InstrId, ip: usize) {
        let st = &mut self.ic_instrs[instr];
        if let Some(pos) = st.granted.iter().position(|&p| p == ip) {
            st.granted.swap_remove(pos);
        }
        let ipst = &mut self.ips[ip];
        ipst.instr = None;
        ipst.outer = None;
        ipst.inner_queue.clear();
        ipst.irc.clear();
        ipst.joined_count = 0;
        ipst.inner_total = None;
        ipst.catchup_in_flight = None;
        ipst.advance_in_flight = false;
        ipst.flush_pending = false;
        debug_assert!(
            ipst.out_buffer.is_none(),
            "released IP still buffers output"
        );
        let ic = self.ic_instrs[instr].ic;
        self.send_inner(now, Node::Ic(ic), Node::Mc, Msg::IpRelease { ip });
        self.ic_check_done(now, instr);
    }

    /// Detect instruction completion, announce it, and reclaim pages.
    fn ic_check_done(&mut self, now: SimTime, instr: InstrId) {
        let st = &self.ic_instrs[instr];
        if st.done || !st.active {
            return;
        }
        if !st.operands.iter().all(PageTable::is_complete) {
            return;
        }
        if !st.granted.is_empty() || !st.parked.is_empty() || !st.flushing.is_empty() {
            return;
        }
        let work_done = match firing(&self.graph.cells[instr]) {
            Firing::PerPage => st.operands[0].exhausted(),
            Firing::PairSweep => {
                let outer_len = st.operands[0].len();
                let inner_empty = st.operands[1].is_empty();
                inner_empty || (st.outer_next >= outer_len && st.outers_done >= outer_len)
            }
            Firing::Complete => st.final_sent,
            Firing::Source => unreachable!("scans are operands, not instructions"),
        };
        if !work_done {
            return;
        }

        self.ic_instrs[instr].done = true;
        self.ic_instrs[instr].completed = Some(now);
        let ic = self.ic_instrs[instr].ic;
        // Reclaim intermediate operand pages (join pages were retained for
        // catch-up requests until now).
        let dead: Vec<PageId> = (self.graph.cells[instr].operands())
            .zip(&self.ic_instrs[instr].operands)
            .filter(|((_, source), _)| source.is_none())
            .flat_map(|(_, table)| table.pages().iter().copied())
            .collect();
        for p in dead {
            self.reclaim_page(p);
        }

        self.send_inner(now, Node::Ic(ic), Node::Mc, Msg::InstrDone { instr });
        if let Some((parent, slot)) = parent(&self.graph, instr) {
            // Guard delay: make sure the last result packet (sent by an IP
            // before its final Done) has certainly landed at the parent IC
            // before the stream-complete announcement.
            let guard = self
                .params
                .outer_transit(result_packet_size(self.params.page_size));
            let parent_ic = self.ic_instrs[parent].ic;
            self.send_outer(
                now + guard,
                Node::Ic(ic),
                Node::Ic(parent_ic),
                CONTROL_PACKET_SIZE,
                Msg::StreamComplete {
                    instr: parent,
                    slot,
                },
            );
        }
    }
}
