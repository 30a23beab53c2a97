//! Master-controller logic: query admission (concurrency control) and
//! IP-pool arbitration.
//!
//! Paper §4.1: the MC queues incoming queries, "checks [each] for
//! concurrency conflicts with other executing queries, and then distributes
//! a subset of the instructions from the query to a set of instruction
//! controllers", and arbitrates IC requests for processors "in a manner
//! which maximizes system performance by insuring that processors are
//! distributed across all nodes in the query tree" — implemented here as a
//! round-robin single-IP grant queue.

use df_sim::SimTime;

use crate::machine::{Msg, Node, RingMachine};

impl RingMachine {
    /// Schedule every query's arrival (t = 0 for plain batches) and admit
    /// what arrives immediately.
    pub(crate) fn mc_bootstrap(&mut self) {
        // Queries arriving exactly at t = 0 enter the queue directly so the
        // "delayed by CC" metric reflects genuine lock conflicts.
        let arrivals = self.arrivals.clone();
        for (query, &at) in arrivals.iter().enumerate() {
            if at == SimTime::ZERO {
                self.mc.waiting.push_back(query);
            } else {
                self.queue
                    .schedule(at, crate::machine::Event::QueryArrival { query });
            }
        }
        let blocked = self.mc_try_admit(SimTime::ZERO);
        self.metrics.queries_delayed_by_cc = blocked as u64;
    }

    /// A query arrived mid-run: enqueue and try admission.
    pub(crate) fn mc_query_arrival(&mut self, now: SimTime, query: usize) {
        self.mc.waiting.push_back(query);
        let blocked = self.mc_try_admit(now);
        self.metrics.queries_delayed_by_cc +=
            u64::from(blocked > 0 && self.mc.waiting.contains(&query));
    }

    /// Handle an inner-ring message addressed to the MC.
    pub(crate) fn mc_handle(&mut self, now: SimTime, msg: Msg) {
        match msg {
            Msg::IpRequest { ic, instr, want } => {
                // Merge into an existing entry for this instruction if one
                // is still queued; otherwise append a new one.
                if let Some(entry) = self.mc.requests.iter_mut().find(|(_, i, _)| *i == instr) {
                    entry.2 += want;
                } else {
                    self.mc.requests.push_back((ic, instr, want));
                }
                self.mc_grant_loop(now);
            }
            Msg::IpRelease { ip } => {
                self.mc.free_ips.push_back(ip);
                self.mc_grant_loop(now);
            }
            Msg::InstrDone { instr } => {
                let query = self.graph.cells[instr].owner;
                self.mc.remaining[query] -= 1;
                if self.mc.remaining[query] == 0 {
                    self.query_done_at[query] = Some(now);
                    if self.params.concurrency_control {
                        self.mc.locks.release(query);
                    }
                    self.mc_try_admit(now);
                }
            }
            other => panic!("MC received unexpected message {other:?}"),
        }
    }

    /// Admit every waiting query whose lock set is grantable; returns how
    /// many stay blocked.
    fn mc_try_admit(&mut self, now: SimTime) -> usize {
        let mut still_waiting = std::collections::VecDeque::new();
        while let Some(query) = self.mc.waiting.pop_front() {
            let admit = !self.params.concurrency_control
                || self.mc.locks.compatible(&self.mc.lock_requests[query]);
            if admit {
                if self.params.concurrency_control {
                    let req = self.mc.lock_requests[query].clone();
                    self.mc.locks.grant(query, &req);
                }
                // Distribute the query's instructions to their ICs.
                for iid in self.graph.reads[query].clone() {
                    let ic = self.ic_instrs[iid].ic;
                    self.send_inner(now, Node::Mc, Node::Ic(ic), Msg::AssignInstr { instr: iid });
                }
            } else {
                still_waiting.push_back(query);
            }
        }
        self.mc.waiting = still_waiting;
        self.mc.waiting.len()
    }

    /// Grant free IPs round-robin, one per requesting instruction per turn
    /// ("insuring that processors are distributed across all nodes").
    fn mc_grant_loop(&mut self, now: SimTime) {
        while !self.mc.free_ips.is_empty() && !self.mc.requests.is_empty() {
            let (ic, instr, remaining) = self.mc.requests.pop_front().expect("checked non-empty");
            // Skip requests for instructions that have since completed.
            if self.ic_instrs[instr].done {
                continue;
            }
            let ip = self.mc.free_ips.pop_front().expect("checked non-empty");
            self.send_inner(now, Node::Mc, Node::Ic(ic), Msg::IpGrant { instr, ip });
            if remaining > 1 {
                self.mc.requests.push_back((ic, instr, remaining - 1));
            }
        }
    }
}
