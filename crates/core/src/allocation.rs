//! Processor-assignment strategies.
//!
//! The companion paper \[4\] ("Processor Allocation Strategies for
//! Multiprocessor Database Machines") evaluates four strategies and finds
//! the data-flow one best — the result that motivates this paper (§1). We
//! implement four analogous policies governing *which instruction's* ready
//! work a freed processor picks up; `abl_alloc` benches them against each
//! other on the simulated machine. The real-threads executor (`df-host`)
//! serves by the winning rule, [`AllocationStrategy::Balanced`], alone.

use std::fmt;
use std::str::FromStr;

/// A processor-assignment strategy: given the instructions that currently
/// have ready work, pick the one to serve next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocationStrategy {
    /// Serve the lowest-numbered ready instruction until it has no ready
    /// work — effectively one instruction at a time, like a machine that
    /// dedicates the whole pool to a node before moving on.
    InstructionAtATime,
    /// Round-robin over ready instructions, ignoring load.
    RoundRobin,
    /// Serve the ready instruction with the fewest work units currently in
    /// flight — the paper's §4.1 arbitration goal of "insuring that
    /// processors are distributed across all nodes in the query tree".
    /// The default (this is the data-flow strategy of \[4\]).
    #[default]
    Balanced,
    /// Prefer instructions nearest the root (drain the pipeline's back end
    /// first).
    RootFirst,
}

impl AllocationStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [AllocationStrategy; 4] = [
        AllocationStrategy::InstructionAtATime,
        AllocationStrategy::RoundRobin,
        AllocationStrategy::Balanced,
        AllocationStrategy::RootFirst,
    ];

    /// Choose among `candidates`, each described as
    /// `(instr_id, in_flight_units, depth_from_root)`. `rr_cursor` advances
    /// on every selection for the round-robin policy. Returns the chosen
    /// instruction id.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    pub fn choose(self, candidates: &[(usize, usize, usize)], rr_cursor: &mut usize) -> usize {
        assert!(
            !candidates.is_empty(),
            "no ready instructions to choose from"
        );
        match self {
            AllocationStrategy::InstructionAtATime => {
                candidates.iter().map(|&(id, _, _)| id).min().unwrap()
            }
            AllocationStrategy::RoundRobin => {
                let idx = *rr_cursor % candidates.len();
                *rr_cursor = rr_cursor.wrapping_add(1);
                candidates[idx].0
            }
            AllocationStrategy::Balanced => {
                candidates
                    .iter()
                    .min_by_key(|&&(id, in_flight, _)| (in_flight, id))
                    .unwrap()
                    .0
            }
            AllocationStrategy::RootFirst => {
                candidates
                    .iter()
                    .min_by_key(|&&(id, _, depth)| (depth, id))
                    .unwrap()
                    .0
            }
        }
    }
}

impl fmt::Display for AllocationStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AllocationStrategy::InstructionAtATime => "instruction-at-a-time",
            AllocationStrategy::RoundRobin => "round-robin",
            AllocationStrategy::Balanced => "balanced",
            AllocationStrategy::RootFirst => "root-first",
        };
        write!(f, "{s}")
    }
}

impl FromStr for AllocationStrategy {
    type Err = String;

    /// Parse the [`fmt::Display`] form back (round-trip guaranteed);
    /// `_` is accepted wherever the canonical form has `-`, so
    /// `--alloc round_robin` works on a shell command line too.
    fn from_str(s: &str) -> Result<AllocationStrategy, String> {
        match s.replace('_', "-").as_str() {
            "instruction-at-a-time" => Ok(AllocationStrategy::InstructionAtATime),
            "round-robin" => Ok(AllocationStrategy::RoundRobin),
            "balanced" => Ok(AllocationStrategy::Balanced),
            "root-first" => Ok(AllocationStrategy::RootFirst),
            other => Err(format!(
                "unknown allocation strategy `{other}` (expected one of: \
                 instruction-at-a-time, round-robin, balanced, root-first)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // candidates: (id, in_flight, depth)
    const CANDS: [(usize, usize, usize); 3] = [(5, 2, 0), (3, 0, 2), (9, 1, 1)];

    #[test]
    fn instruction_at_a_time_picks_lowest_id() {
        let mut rr = 0;
        assert_eq!(
            AllocationStrategy::InstructionAtATime.choose(&CANDS, &mut rr),
            3
        );
    }

    #[test]
    fn balanced_picks_least_loaded() {
        let mut rr = 0;
        assert_eq!(AllocationStrategy::Balanced.choose(&CANDS, &mut rr), 3);
        // Tie on load -> lowest id.
        let tied = [(7, 1, 0), (2, 1, 0)];
        assert_eq!(AllocationStrategy::Balanced.choose(&tied, &mut rr), 2);
    }

    #[test]
    fn root_first_picks_smallest_depth() {
        let mut rr = 0;
        assert_eq!(AllocationStrategy::RootFirst.choose(&CANDS, &mut rr), 5);
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = 0;
        let picks: Vec<usize> = (0..4)
            .map(|_| AllocationStrategy::RoundRobin.choose(&CANDS, &mut rr))
            .collect();
        assert_eq!(picks, vec![5, 3, 9, 5]);
    }

    #[test]
    #[should_panic(expected = "no ready instructions")]
    fn empty_candidates_panics() {
        let mut rr = 0;
        AllocationStrategy::Balanced.choose(&[], &mut rr);
    }

    #[test]
    fn display_from_str_round_trips() {
        for strategy in AllocationStrategy::ALL {
            let parsed: AllocationStrategy = strategy.to_string().parse().unwrap();
            assert_eq!(parsed, strategy);
        }
        // Underscore aliases for shell friendliness.
        assert_eq!(
            "round_robin".parse::<AllocationStrategy>().unwrap(),
            AllocationStrategy::RoundRobin
        );
        assert!("fastest-first".parse::<AllocationStrategy>().is_err());
    }
}
