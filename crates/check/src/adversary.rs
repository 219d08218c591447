//! Adversarial activation-order policies.
//!
//! An adversary is a deterministic function from (seed, decision history)
//! to an index into the current runnable set. Five families are explored,
//! round-robin across the schedule index, so a campaign of `N` schedules
//! exercises each family `N/5` times with distinct seeds:
//!
//! * **seeded-random** — uniform choice from a [`SplitMix64`] stream;
//! * **round-robin-skew** — a rotating cursor that periodically sticks,
//!   so one agent gets activated twice in a row while another starves;
//! * **laggard-agent** — one seed-chosen agent is starved: it only runs
//!   when it is the sole runnable agent;
//! * **delayed-wakeup** — a freshly woken agent has its first activation
//!   withheld for a seed-chosen window, modelling a late wake-up delivery;
//! * **stalled-synchronizer** — agent 0 (the CLEAN synchronizer, or the
//!   seed agent of the cloning variant) is starved like a laggard.

use hypersweep_sim::{AgentId, AgentProgram, Engine};
use hypersweep_topology::rng::SplitMix64;

/// The runnable agents an adversary picks from: a sequence of distinct
/// agent ids, in whatever order the driver keeps them. A decision is a
/// position in this sequence.
pub trait RunnableView {
    /// How many agents are runnable (at least one when an adversary is
    /// asked to choose).
    fn len(&self) -> usize;

    /// Whether no agent is runnable.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The agent at position `idx < len()`.
    fn nth(&self, idx: usize) -> AgentId;

    /// The position of `id`, or `None` if it is not in the view.
    fn rank(&self, id: AgentId) -> Option<usize>;
}

impl RunnableView for [AgentId] {
    fn len(&self) -> usize {
        <[AgentId]>::len(self)
    }

    fn nth(&self, idx: usize) -> AgentId {
        self[idx]
    }

    fn rank(&self, id: AgentId) -> Option<usize> {
        self.iter().position(|&r| r == id)
    }
}

/// The engine's runnable set, in ascending id order, read through its
/// count/select/rank hooks without materializing the list.
impl<P: AgentProgram> RunnableView for Engine<P> {
    fn len(&self) -> usize {
        self.runnable_count()
    }

    fn nth(&self, idx: usize) -> AgentId {
        self.runnable_nth(idx)
    }

    fn rank(&self, id: AgentId) -> Option<usize> {
        self.runnable_rank(id)
    }
}

/// The adversary families (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Uniform seeded-random choice.
    SeededRandom,
    /// Rotating cursor with periodic sticking.
    RoundRobinSkew,
    /// Starve one seed-chosen agent.
    Laggard,
    /// Withhold freshly runnable agents for a window of decisions.
    DelayedWakeup,
    /// Starve agent 0 — the coordinator/seed agent.
    StalledSynchronizer,
}

impl AdversaryKind {
    /// All families, in campaign rotation order.
    pub const ALL: [AdversaryKind; 5] = [
        AdversaryKind::SeededRandom,
        AdversaryKind::RoundRobinSkew,
        AdversaryKind::Laggard,
        AdversaryKind::DelayedWakeup,
        AdversaryKind::StalledSynchronizer,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::SeededRandom => "seeded-random",
            AdversaryKind::RoundRobinSkew => "round-robin-skew",
            AdversaryKind::Laggard => "laggard-agent",
            AdversaryKind::DelayedWakeup => "delayed-wakeup",
            AdversaryKind::StalledSynchronizer => "stalled-synchronizer",
        }
    }
}

/// A stateful adversary: one per explored schedule. Its [`SplitMix64`]
/// stream only *generates* schedules; replays never consult it (the
/// decision trace is the schedule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adversary {
    kind: AdversaryKind,
    rng: SplitMix64,
    /// Round-robin cursor (RoundRobinSkew).
    cursor: usize,
    /// The starved agent (Laggard / StalledSynchronizer).
    laggard: AgentId,
    /// Delayed-wakeup state: the withheld agent and how many more
    /// decisions to withhold it for.
    delayed: Option<(AgentId, u64)>,
}

impl Adversary {
    /// Build an adversary of `kind` from a raw seed.
    pub fn new(kind: AdversaryKind, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F);
        let laggard = match kind {
            AdversaryKind::StalledSynchronizer => 0,
            // Starve a small id: early agents carry the coordination load,
            // so starving one of them stresses the most wait conditions.
            _ => (rng.below(8)) as AgentId,
        };
        Adversary {
            kind,
            rng,
            cursor: 0,
            laggard,
            delayed: None,
        }
    }

    /// The adversary used for schedule number `schedule` of a campaign
    /// seeded with `seed`: families rotate with the schedule index and the
    /// per-schedule RNG stream is derived from both.
    pub fn for_schedule(seed: u64, schedule: u64) -> Self {
        let kind = AdversaryKind::ALL[(schedule % AdversaryKind::ALL.len() as u64) as usize];
        Adversary::new(kind, seed.wrapping_mul(0x9E37_79B9).wrapping_add(schedule))
    }

    /// The family this adversary belongs to.
    pub fn kind(&self) -> AdversaryKind {
        self.kind
    }

    /// Pick an index into `runnable` (distinct agent ids in any order,
    /// non-empty).
    pub fn choose(&mut self, runnable: &[AgentId], step: u64) -> u32 {
        self.choose_from(runnable, step)
    }

    /// Pick a position in `runnable` (non-empty). Makes the same RNG draws
    /// and returns the same position as [`Adversary::choose`] on the list
    /// the view stands for, without collecting it.
    pub fn choose_from<R: RunnableView + ?Sized>(&mut self, runnable: &R, step: u64) -> u32 {
        let len = runnable.len();
        debug_assert!(len > 0);
        if len == 1 {
            return 0;
        }
        match self.kind {
            AdversaryKind::SeededRandom => self.rng.below(len as u64) as u32,
            AdversaryKind::RoundRobinSkew => {
                let idx = self.cursor % len;
                // Stick every third decision: the same index is chosen
                // again next time while the rest of the queue ages.
                if step % 3 != 0 {
                    self.cursor += 1;
                }
                idx as u32
            }
            AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => {
                self.choose_except(runnable, self.laggard)
            }
            AdversaryKind::DelayedWakeup => {
                // Withhold one agent for a window; everything else is
                // seeded-random. When the window closes, pick a new victim.
                match self.delayed {
                    Some((id, left)) if left > 0 => {
                        self.delayed = Some((id, left - 1));
                        self.choose_except(runnable, id)
                    }
                    _ => {
                        let victim = runnable.nth(self.rng.below(len as u64) as usize);
                        let window = 4 + self.rng.below(28);
                        self.delayed = Some((victim, window));
                        self.rng.below(len as u64) as u32
                    }
                }
            }
        }
    }

    /// A uniform position among every agent but `excluded` (`len >= 2`):
    /// draw from the others, then step over `excluded`'s position.
    fn choose_except<R: RunnableView + ?Sized>(&mut self, runnable: &R, excluded: AgentId) -> u32 {
        let len = runnable.len() as u64;
        match runnable.rank(excluded) {
            Some(pos) => {
                let r = self.rng.below(len - 1);
                (r + u64::from(r >= pos as u64)) as u32
            }
            None => self.rng.below(len) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        for kind in AdversaryKind::ALL {
            let runnable: Vec<AgentId> = (0..6).collect();
            let mut a = Adversary::new(kind, 42);
            let mut b = Adversary::new(kind, 42);
            for step in 0..100 {
                assert_eq!(a.choose(&runnable, step), b.choose(&runnable, step));
            }
        }
    }

    #[test]
    fn choices_are_in_range() {
        for kind in AdversaryKind::ALL {
            let mut a = Adversary::new(kind, 7);
            for step in 0..200 {
                let len = 1 + (step as usize % 5);
                let runnable: Vec<AgentId> = (0..len as AgentId).collect();
                let idx = a.choose(&runnable, step);
                assert!((idx as usize) < len, "{kind:?} step {step}");
            }
        }
    }

    /// The collecting implementation the view-based one replaced: gather
    /// the positions of every agent but the withheld one, then draw among
    /// them. Kept as the reference `choose` must match draw for draw.
    fn reference_choose(a: &mut Adversary, runnable: &[AgentId], step: u64) -> u32 {
        let len = runnable.len();
        if len == 1 {
            return 0;
        }
        let others = |rng: &mut SplitMix64, excluded: AgentId| {
            let others: Vec<u32> = runnable
                .iter()
                .enumerate()
                .filter(|(_, &id)| id != excluded)
                .map(|(i, _)| i as u32)
                .collect();
            if others.is_empty() {
                0
            } else {
                others[rng.below(others.len() as u64) as usize]
            }
        };
        match a.kind {
            AdversaryKind::SeededRandom => a.rng.below(len as u64) as u32,
            AdversaryKind::RoundRobinSkew => {
                let idx = a.cursor % len;
                if step % 3 != 0 {
                    a.cursor += 1;
                }
                idx as u32
            }
            AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => {
                others(&mut a.rng, a.laggard)
            }
            AdversaryKind::DelayedWakeup => match a.delayed {
                Some((id, left)) if left > 0 => {
                    a.delayed = Some((id, left - 1));
                    others(&mut a.rng, id)
                }
                _ => {
                    let victim = runnable[a.rng.below(len as u64) as usize];
                    let window = 4 + a.rng.below(28);
                    a.delayed = Some((victim, window));
                    a.rng.below(len as u64) as u32
                }
            },
        }
    }

    /// The agent the next decision withholds, if any.
    fn withheld(a: &Adversary) -> Option<AgentId> {
        match a.kind {
            AdversaryKind::Laggard | AdversaryKind::StalledSynchronizer => Some(a.laggard),
            AdversaryKind::DelayedWakeup => a.delayed.filter(|&(_, left)| left > 0).map(|d| d.0),
            _ => None,
        }
    }

    #[test]
    fn view_choice_matches_the_collecting_reference() {
        let mut gen = SplitMix64::new(0x5EED);
        for kind in AdversaryKind::ALL {
            for seed in 0..16 {
                let mut fast = Adversary::new(kind, seed);
                let mut reference = fast.clone();
                for step in 0..300 {
                    // Distinct ids in shuffled order, then the withheld
                    // agent absent, first, in the middle or last.
                    let excluded = withheld(&fast);
                    let mut ids: Vec<AgentId> =
                        (0..24).filter(|&id| Some(id) != excluded).collect();
                    for i in (1..ids.len()).rev() {
                        ids.swap(i, gen.below(i as u64 + 1) as usize);
                    }
                    ids.truncate(1 + gen.below(9) as usize);
                    if let Some(ex) = excluded {
                        match step % 4 {
                            0 => {}
                            1 => ids.insert(0, ex),
                            2 => ids.insert(ids.len() / 2, ex),
                            _ => ids.push(ex),
                        }
                    }
                    let got = fast.choose(&ids, step);
                    let want = reference_choose(&mut reference, &ids, step);
                    assert_eq!(got, want, "{kind:?} seed {seed} step {step} on {ids:?}");
                    assert_eq!(fast, reference, "{kind:?} seed {seed} step {step}: state");
                }
            }
        }
    }

    #[test]
    fn stalled_synchronizer_never_picks_agent_zero_unless_alone() {
        let mut a = Adversary::new(AdversaryKind::StalledSynchronizer, 3);
        let runnable: Vec<AgentId> = vec![0, 2, 5];
        for step in 0..100 {
            let idx = a.choose(&runnable, step);
            assert_ne!(runnable[idx as usize], 0);
        }
        assert_eq!(a.choose(&[0], 0), 0);
    }
}
