//! Adaptive array shadow state, after S LIM S TATE (Wilcox et al., ASE
//! 2015), as used by BigFoot's run time (§4 "Dynamic Array Compression").
//!
//! An array starts with a single *coarse* shadow location covering every
//! element. When a committed footprint does not match the current
//! representation, the representation is refined — to contiguous *blocks*,
//! to per-residue-class *strided* states, or ultimately to a *fine* state
//! per element. Refinement copies the enclosing state into each new part,
//! which is **lossless**: an operation is only ever applied to a
//! compressed state whose extent exactly matches a committed range, so the
//! copied history is exact for every covered element, and race verdicts
//! coincide with a fully fine-grained detector.

use bigfoot_bfj::ConcreteRange;
use bigfoot_vc::{AccessKind, RaceInfo, Tid, VarState, VectorClock};

/// Maximum number of block segments before degrading to fine-grained.
/// A `Blocks` representation also degrades once it holds more than half
/// as many segments as the array has elements: past that point its
/// binary searches cost more than a fine per-element index, and, since
/// every shadow state takes at least two units, its bounds vector could
/// make it larger than the fine representation.
const MAX_SEGMENTS: usize = 64;

/// The representation of one array's shadow state.
#[derive(Debug, Clone)]
enum Repr {
    /// One shadow location for the whole array.
    Coarse(VarState),
    /// Contiguous segments: `states[i]` covers `bounds[i] .. bounds[i+1]`.
    Blocks {
        bounds: Vec<i64>,
        states: Vec<VarState>,
    },
    /// One shadow location per residue class modulo `k`.
    Strided { k: i64, states: Vec<VarState> },
    /// One shadow location per element.
    Fine(Vec<VarState>),
}

/// Which representation an [`ArrayShadow`] currently uses (for tests and
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Single shadow location.
    Coarse,
    /// Contiguous segments.
    Blocks,
    /// Per-residue-class.
    Strided,
    /// Per-element.
    Fine,
}

/// Next step for the iterative apply-or-refine loop.
enum Step {
    Done,
    ToBlocks,
    ToStrided(i64),
    ToFine,
}

/// The result of applying a committed range to an array's shadow state.
#[derive(Debug, Clone, Default)]
pub struct ApplyOutcome {
    /// Number of shadow-location check-and-update operations performed.
    pub shadow_ops: u64,
    /// Races detected, with the sub-range of the offending shadow state.
    pub races: Vec<(ConcreteRange, RaceInfo)>,
}

/// Adaptive shadow state for a single array.
///
/// # Examples
///
/// ```
/// use bigfoot_shadow::ArrayShadow;
/// use bigfoot_bfj::ConcreteRange;
/// use bigfoot_vc::{AccessKind, Tid, VectorClock};
///
/// let mut clock = VectorClock::new();
/// clock.tick(Tid(0));
/// let mut shadow = ArrayShadow::new(100);
/// // A whole-array write commits against a single shadow location.
/// let out = shadow.apply(ConcreteRange::contiguous(0, 100), AccessKind::Write, Tid(0), &clock);
/// assert_eq!(out.shadow_ops, 1);
/// assert!(out.races.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ArrayShadow {
    len: i64,
    repr: Repr,
}

impl ArrayShadow {
    /// Creates the initial coarse shadow for an array of `len` elements.
    pub fn new(len: usize) -> ArrayShadow {
        ArrayShadow {
            len: len as i64,
            repr: Repr::Coarse(VarState::new()),
        }
    }

    /// The current representation kind.
    pub fn repr_kind(&self) -> ReprKind {
        match &self.repr {
            Repr::Coarse(_) => ReprKind::Coarse,
            Repr::Blocks { .. } => ReprKind::Blocks,
            Repr::Strided { .. } => ReprKind::Strided,
            Repr::Fine(_) => ReprKind::Fine,
        }
    }

    /// Number of shadow locations currently held. A zero-length array
    /// shadows no elements, so it reports zero locations (its initial
    /// coarse state is inert: every commit against it is empty).
    pub fn locations(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        match &self.repr {
            Repr::Coarse(_) => 1,
            Repr::Blocks { states, .. } => states.len(),
            Repr::Strided { states, .. } => states.len(),
            Repr::Fine(states) => states.len(),
        }
    }

    /// Space in clock-entry units (Table 2 accounting). Zero for a
    /// zero-length array — it has no shadowable elements, and counting
    /// its inert coarse state would overstate `space_units` by one per
    /// empty allocation.
    pub fn space_units(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        match &self.repr {
            Repr::Coarse(s) => s.space_units(),
            Repr::Blocks { bounds, states } => {
                bounds.len() + states.iter().map(VarState::space_units).sum::<usize>()
            }
            Repr::Strided { states, .. } => {
                1 + states.iter().map(VarState::space_units).sum::<usize>()
            }
            Repr::Fine(states) => states.iter().map(VarState::space_units).sum::<usize>(),
        }
    }

    /// Applies a committed check over `range` with the given kind, thread,
    /// and clock, adaptively refining the representation as needed.
    pub fn apply(
        &mut self,
        range: ConcreteRange,
        kind: AccessKind,
        t: Tid,
        clock: &VectorClock,
    ) -> ApplyOutcome {
        let mut out = ApplyOutcome::default();
        // A non-positive stride denotes no grid at all; rejecting it here
        // (before `clamp`, whose grid rounding divides by the stride) keeps
        // malformed programmatic ranges from panicking.
        if range.step < 1 {
            return out;
        }
        let range = self.clamp(range);
        if range.is_empty() || self.len == 0 {
            return out;
        }
        bigfoot_obs::observe!("shadow.commit.len", range.len());
        self.apply_inner(range, kind, t, clock, &mut out);
        out
    }

    fn clamp(&self, r: ConcreteRange) -> ConcreteRange {
        let lo = if r.lo < 0 {
            // Round up to the first in-bounds grid point.
            let deficit = -r.lo;
            r.lo + ((deficit + r.step - 1) / r.step) * r.step
        } else {
            r.lo
        };
        ConcreteRange {
            lo,
            hi: r.hi.min(self.len),
            step: r.step,
        }
    }

    fn whole(&self, r: &ConcreteRange) -> bool {
        r.step == 1 && r.lo <= 0 && r.hi >= self.len
    }

    /// True if `r` covers its entire residue class `r.lo % r.step` within
    /// `[0, len)`.
    fn full_class(&self, r: &ConcreteRange) -> bool {
        if r.step <= 1 || r.lo >= r.step {
            return false;
        }
        if self.len <= r.lo {
            return true;
        }
        let last = r.lo + ((self.len - 1 - r.lo) / r.step) * r.step;
        r.hi > last
    }

    fn apply_inner(
        &mut self,
        r: ConcreteRange,
        kind: AccessKind,
        t: Tid,
        clock: &VectorClock,
        out: &mut ApplyOutcome,
    ) {
        // At most Coarse → (Blocks|Strided) → Fine, so three attempts
        // always suffice.
        for _ in 0..3 {
            match self.try_once(r, kind, t, clock, out) {
                Step::Done => return,
                Step::ToBlocks => {
                    bigfoot_obs::count!("shadow.transition.to_blocks");
                    self.refine_blocks(r)
                }
                Step::ToStrided(k) => {
                    bigfoot_obs::count!("shadow.transition.to_strided");
                    self.refine_strided(k)
                }
                Step::ToFine => {
                    bigfoot_obs::count!("shadow.transition.to_fine");
                    self.go_fine()
                }
            }
        }
        unreachable!("array shadow refinement did not converge");
    }

    fn try_once(
        &mut self,
        r: ConcreteRange,
        kind: AccessKind,
        t: Tid,
        clock: &VectorClock,
        out: &mut ApplyOutcome,
    ) -> Step {
        let len = self.len;
        let whole = self.whole(&r);
        let full_class = self.full_class(&r);
        match &mut self.repr {
            Repr::Coarse(state) => {
                if len == 1 || whole {
                    out.shadow_ops += 1;
                    if let Err(race) = state.apply(kind, t, clock) {
                        out.races.push((ConcreteRange::contiguous(0, len), race));
                    }
                    Step::Done
                } else if r.step == 1 {
                    Step::ToBlocks
                } else if full_class {
                    Step::ToStrided(r.step)
                } else {
                    Step::ToFine
                }
            }
            Repr::Blocks { bounds, states } => {
                if r.step != 1 {
                    return Step::ToFine;
                }
                // Split segments at r.lo and r.hi if needed.
                for cut in [r.lo, r.hi] {
                    if let Err(pos) = bounds.binary_search(&cut) {
                        bounds.insert(pos, cut);
                        let seg = pos - 1;
                        let copy = states[seg].clone();
                        states.insert(seg, copy);
                    }
                }
                if states.len() > MAX_SEGMENTS || 2 * states.len() as i64 > len {
                    return Step::ToFine;
                }
                let first = bounds.binary_search(&r.lo).expect("cut present");
                let last = bounds.binary_search(&r.hi).expect("cut present");
                for seg in first..last {
                    out.shadow_ops += 1;
                    if let Err(race) = states[seg].apply(kind, t, clock) {
                        out.races.push((
                            ConcreteRange::contiguous(bounds[seg], bounds[seg + 1]),
                            race,
                        ));
                    }
                }
                Step::Done
            }
            Repr::Strided { k, states } => {
                let k = *k;
                if r.step == k && full_class {
                    let class = (r.lo % k) as usize;
                    out.shadow_ops += 1;
                    if let Err(race) = states[class].apply(kind, t, clock) {
                        out.races.push((
                            ConcreteRange {
                                lo: r.lo % k,
                                hi: len,
                                step: k,
                            },
                            race,
                        ));
                    }
                    Step::Done
                } else if whole {
                    for (class, state) in states.iter_mut().enumerate() {
                        out.shadow_ops += 1;
                        if let Err(race) = state.apply(kind, t, clock) {
                            out.races.push((
                                ConcreteRange {
                                    lo: class as i64,
                                    hi: len,
                                    step: k,
                                },
                                race,
                            ));
                        }
                    }
                    Step::Done
                } else {
                    Step::ToFine
                }
            }
            Repr::Fine(states) => {
                for i in r.indices() {
                    out.shadow_ops += 1;
                    if let Err(race) = states[i as usize].apply(kind, t, clock) {
                        out.races.push((ConcreteRange::singleton(i), race));
                    }
                }
                Step::Done
            }
        }
    }

    /// Refines a coarse representation into blocks cut at `r`'s bounds.
    fn refine_blocks(&mut self, r: ConcreteRange) {
        let Repr::Coarse(state) = &self.repr else {
            return self.go_fine();
        };
        let seed = state.clone();
        let mut bounds = vec![0, self.len];
        if r.lo > 0 {
            bounds.insert(1, r.lo);
        }
        if r.hi < self.len {
            bounds.insert(bounds.len() - 1, r.hi);
        }
        let states = vec![seed; bounds.len() - 1];
        self.repr = Repr::Blocks { bounds, states };
    }

    /// Refines a coarse representation into `k` residue classes.
    fn refine_strided(&mut self, k: i64) {
        let Repr::Coarse(state) = &self.repr else {
            return self.go_fine();
        };
        // With `len <= k` every residue class holds at most one element,
        // so `k` states would be no finer than `Fine` and possibly larger.
        if self.len <= k {
            return self.go_fine();
        }
        let seed = state.clone();
        self.repr = Repr::Strided {
            k,
            states: vec![seed; k as usize],
        };
    }

    /// Degrades to the fine-grained representation, copying each state to
    /// the elements it covered (lossless).
    fn go_fine(&mut self) {
        let n = self.len.max(0) as usize;
        let fine: Vec<VarState> = match &self.repr {
            Repr::Coarse(s) => vec![s.clone(); n],
            Repr::Blocks { bounds, states } => {
                let mut v = Vec::with_capacity(n);
                for (seg, s) in states.iter().enumerate() {
                    let width = (bounds[seg + 1] - bounds[seg]) as usize;
                    v.extend(std::iter::repeat_with(|| s.clone()).take(width));
                }
                v
            }
            Repr::Strided { k, states } => {
                (0..n).map(|i| states[i % *k as usize].clone()).collect()
            }
            Repr::Fine(states) => states.clone(),
        };
        self.repr = Repr::Fine(fine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(t: Tid, v: u32) -> VectorClock {
        let mut c = VectorClock::new();
        c.set(t, v);
        c
    }

    #[test]
    fn whole_array_commits_stay_coarse() {
        let mut sh = ArrayShadow::new(1000);
        let c = clock(Tid(0), 1);
        for _ in 0..10 {
            let out = sh.apply(
                ConcreteRange::contiguous(0, 1000),
                AccessKind::Write,
                Tid(0),
                &c,
            );
            assert_eq!(out.shadow_ops, 1);
        }
        assert_eq!(sh.repr_kind(), ReprKind::Coarse);
        assert_eq!(sh.locations(), 1);
    }

    #[test]
    fn half_array_commit_refines_to_blocks() {
        // The paper's movePts(a, 0, a.length/2) scenario.
        let mut sh = ArrayShadow::new(100);
        let c = clock(Tid(0), 1);
        sh.apply(
            ConcreteRange::contiguous(0, 100),
            AccessKind::Read,
            Tid(0),
            &c,
        );
        let out = sh.apply(
            ConcreteRange::contiguous(0, 50),
            AccessKind::Read,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Blocks);
        assert_eq!(sh.locations(), 2);
        assert_eq!(out.shadow_ops, 1, "one op on the refined first half");
    }

    #[test]
    fn strided_commits_use_residue_classes() {
        let mut sh = ArrayShadow::new(100);
        let c = clock(Tid(0), 1);
        let out = sh.apply(
            ConcreteRange {
                lo: 0,
                hi: 100,
                step: 2,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Strided);
        assert_eq!(out.shadow_ops, 1);
        let out = sh.apply(
            ConcreteRange {
                lo: 1,
                hi: 100,
                step: 2,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(out.shadow_ops, 1);
        assert_eq!(sh.locations(), 2);
    }

    #[test]
    fn misaligned_commit_degrades_to_fine() {
        let mut sh = ArrayShadow::new(10);
        let c = clock(Tid(0), 1);
        sh.apply(
            ConcreteRange {
                lo: 0,
                hi: 10,
                step: 2,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        // A partial strided commit that is not a full class.
        let out = sh.apply(
            ConcreteRange {
                lo: 2,
                hi: 7,
                step: 2,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Fine);
        assert_eq!(out.shadow_ops, 3); // elements 2, 4, 6
    }

    #[test]
    fn races_detected_across_representations() {
        let mut sh = ArrayShadow::new(50);
        sh.apply(
            ConcreteRange::contiguous(0, 50),
            AccessKind::Write,
            Tid(0),
            &clock(Tid(0), 1),
        );
        // Unordered write by another thread.
        let out = sh.apply(
            ConcreteRange::contiguous(0, 50),
            AccessKind::Write,
            Tid(1),
            &clock(Tid(1), 1),
        );
        assert_eq!(out.races.len(), 1);
        assert_eq!(out.races[0].1.prior_tid, Tid(0));
    }

    #[test]
    fn refinement_is_lossless_for_races() {
        // Write whole array by T0; then T1 (unsynchronized) reads half.
        // The race must be found even though the repr refines.
        let mut sh = ArrayShadow::new(40);
        sh.apply(
            ConcreteRange::contiguous(0, 40),
            AccessKind::Write,
            Tid(0),
            &clock(Tid(0), 1),
        );
        let out = sh.apply(
            ConcreteRange::contiguous(0, 20),
            AccessKind::Read,
            Tid(1),
            &clock(Tid(1), 1),
        );
        assert_eq!(out.races.len(), 1);
    }

    #[test]
    fn disjoint_halves_by_different_threads_do_not_race() {
        let mut sh = ArrayShadow::new(40);
        let o1 = sh.apply(
            ConcreteRange::contiguous(0, 20),
            AccessKind::Write,
            Tid(0),
            &clock(Tid(0), 1),
        );
        let o2 = sh.apply(
            ConcreteRange::contiguous(20, 40),
            AccessKind::Write,
            Tid(1),
            &clock(Tid(1), 1),
        );
        assert!(o1.races.is_empty());
        assert!(o2.races.is_empty(), "{:?}", o2.races);
    }

    #[test]
    fn many_small_blocks_degrade_to_fine() {
        let mut sh = ArrayShadow::new(1000);
        let c = clock(Tid(0), 1);
        for i in 0..200 {
            sh.apply(
                ConcreteRange::contiguous(i * 5, i * 5 + 3),
                AccessKind::Write,
                Tid(0),
                &c,
            );
            if sh.repr_kind() == ReprKind::Fine {
                break;
            }
        }
        assert_eq!(sh.repr_kind(), ReprKind::Fine);
    }

    #[test]
    fn out_of_bounds_ranges_are_clamped() {
        let mut sh = ArrayShadow::new(10);
        let c = clock(Tid(0), 1);
        let out = sh.apply(
            ConcreteRange::contiguous(-5, 20),
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(out.shadow_ops, 1); // clamps to whole array
        assert_eq!(sh.repr_kind(), ReprKind::Coarse);
    }

    #[test]
    fn zero_length_array_commits_are_noops() {
        let mut sh = ArrayShadow::new(0);
        let c = clock(Tid(0), 1);
        assert_eq!(sh.locations(), 0, "no elements, no shadow locations");
        assert_eq!(sh.space_units(), 0, "no elements, no space");
        for r in [
            ConcreteRange::contiguous(0, 0),
            ConcreteRange::singleton(0),
            ConcreteRange::contiguous(-4, 9),
            ConcreteRange {
                lo: 0,
                hi: 8,
                step: 3,
            },
        ] {
            let out = sh.apply(r, AccessKind::Write, Tid(0), &c);
            assert_eq!(out.shadow_ops, 0, "{r}: empty array never checks");
            assert!(out.races.is_empty());
        }
        // Conflicting-thread commits still cannot race on zero elements.
        let out = sh.apply(
            ConcreteRange::contiguous(0, 4),
            AccessKind::Write,
            Tid(1),
            &clock(Tid(1), 1),
        );
        assert!(out.races.is_empty());
        assert_eq!(sh.repr_kind(), ReprKind::Coarse, "repr never refines");
        assert_eq!(sh.locations(), 0);
        assert_eq!(sh.space_units(), 0);
    }

    #[test]
    fn non_positive_stride_commit_is_rejected_not_a_panic() {
        let mut sh = ArrayShadow::new(16);
        let c = clock(Tid(0), 1);
        for step in [0, -3] {
            // lo < 0 would previously reach clamp's grid rounding and
            // divide by a zero stride.
            let out = sh.apply(
                ConcreteRange {
                    lo: -5,
                    hi: 10,
                    step,
                },
                AccessKind::Write,
                Tid(0),
                &c,
            );
            assert_eq!(out.shadow_ops, 0);
            assert!(out.races.is_empty());
        }
        assert_eq!(sh.repr_kind(), ReprKind::Coarse);
    }

    #[test]
    fn lo_equals_hi_commit_is_noop_at_every_repr() {
        let c = clock(Tid(0), 1);
        let mut sh = ArrayShadow::new(12);
        // Drive the shadow through Blocks and Fine, probing an empty
        // `lo == hi` commit at each representation.
        for probe_at in [0i64, 5, 12] {
            let out = sh.apply(
                ConcreteRange::contiguous(probe_at, probe_at),
                AccessKind::Write,
                Tid(0),
                &c,
            );
            assert_eq!(out.shadow_ops, 0);
        }
        sh.apply(
            ConcreteRange::contiguous(0, 6),
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Blocks);
        assert_eq!(
            sh.apply(
                ConcreteRange::contiguous(3, 3),
                AccessKind::Read,
                Tid(0),
                &c
            )
            .shadow_ops,
            0
        );
        sh.apply(
            ConcreteRange {
                lo: 1,
                hi: 8,
                step: 3,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Fine);
        assert_eq!(
            sh.apply(
                ConcreteRange::contiguous(7, 7),
                AccessKind::Read,
                Tid(0),
                &c
            )
            .shadow_ops,
            0
        );
    }

    #[test]
    fn empty_commit_is_noop() {
        let mut sh = ArrayShadow::new(10);
        let c = clock(Tid(0), 1);
        let out = sh.apply(
            ConcreteRange::contiguous(5, 5),
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(out.shadow_ops, 0);
    }

    #[test]
    fn space_units_shrink_with_compression() {
        let fine_space = {
            let mut sh = ArrayShadow::new(100);
            let c = clock(Tid(0), 1);
            for i in 0..100 {
                sh.apply(
                    ConcreteRange {
                        lo: i,
                        hi: i + 1,
                        step: 1,
                    },
                    AccessKind::Write,
                    Tid(0),
                    &c,
                );
            }
            sh.space_units()
        };
        let coarse_space = {
            let mut sh = ArrayShadow::new(100);
            let c = clock(Tid(0), 1);
            sh.apply(
                ConcreteRange::contiguous(0, 100),
                AccessKind::Write,
                Tid(0),
                &c,
            );
            sh.space_units()
        };
        assert!(coarse_space * 10 < fine_space);
    }

    #[test]
    fn singleton_commits_leave_blocks_for_fine() {
        // h2's 64-row array: MAX_SEGMENTS can never be exceeded on 64
        // elements, so only the half-the-length rule ends the Blocks
        // stage.
        let mut sh = ArrayShadow::new(64);
        let c = clock(Tid(0), 1);
        for i in 0..64 {
            sh.apply(ConcreteRange::singleton(i), AccessKind::Write, Tid(0), &c);
            if sh.repr_kind() == ReprKind::Blocks {
                assert!(2 * sh.locations() <= 64, "{} segments", sh.locations());
            }
        }
        assert_eq!(sh.repr_kind(), ReprKind::Fine);
        // Once fine, each singleton commit is one direct shadow op.
        let out = sh.apply(ConcreteRange::singleton(9), AccessKind::Read, Tid(0), &c);
        assert_eq!(out.shadow_ops, 1);
    }

    #[test]
    fn stride_at_least_the_length_goes_fine() {
        // A stride-4 full-class commit on 3 elements: one residue class
        // per element, so four strided states would outgrow `Fine`.
        let mut sh = ArrayShadow::new(3);
        let c = clock(Tid(0), 1);
        let r = ConcreteRange {
            lo: 1,
            hi: 3,
            step: 4,
        };
        sh.apply(r, AccessKind::Write, Tid(0), &c);
        assert_eq!(sh.repr_kind(), ReprKind::Fine);
        assert_eq!(sh.locations(), 3);
        // A stride shorter than the array still goes strided.
        let mut sh = ArrayShadow::new(8);
        sh.apply(
            ConcreteRange {
                lo: 1,
                hi: 8,
                step: 4,
            },
            AccessKind::Write,
            Tid(0),
            &c,
        );
        assert_eq!(sh.repr_kind(), ReprKind::Strided);
        assert_eq!(sh.locations(), 4);
    }

    /// A tiny xorshift generator, so the seeded sequences need no crate.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: i64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as i64
        }
    }

    /// A random committed range over an array of `len`: whole, a block,
    /// a singleton, a full residue class or an arbitrary strided range.
    fn random_range(rng: &mut Rng, len: i64) -> ConcreteRange {
        let lo = rng.below(len);
        match rng.below(5) {
            0 => ConcreteRange::contiguous(0, len),
            1 => ConcreteRange::contiguous(lo, lo + 1 + rng.below(len - lo)),
            2 => ConcreteRange::singleton(lo),
            3 => {
                let k = 2 + rng.below(3);
                ConcreteRange {
                    lo: rng.below(k),
                    hi: len,
                    step: k,
                }
            }
            _ => ConcreteRange {
                lo,
                hi: lo + 1 + rng.below(len - lo),
                step: 1 + rng.below(4),
            },
        }
    }

    /// Seeded commit sequences by three threads that synchronize now and
    /// then: the adaptive shadow's races cover exactly the elements a
    /// fine-only shadow finds racy, and whenever it holds blocks they
    /// take no more space than its own fine expansion.
    #[test]
    fn random_commits_match_a_fine_shadow() {
        for seed in 1..=200u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let len = 2 + rng.below(70);
            let mut sh = ArrayShadow::new(len as usize);
            let mut fine = vec![VarState::new(); len as usize];
            let mut clocks: Vec<VectorClock> = (0..3).map(|t| clock(Tid(t), 1)).collect();
            for step in 0..60 {
                let t = rng.below(3) as usize;
                if rng.below(4) == 0 {
                    // t acquires what another thread released.
                    let u = rng.below(3) as usize;
                    let released = clocks[u].clone();
                    clocks[u].tick(Tid(u as u32));
                    clocks[t].join(&released);
                }
                let kind = if rng.below(2) == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                let r = random_range(&mut rng, len);
                let tid = Tid(t as u32);
                let out = sh.apply(r, kind, tid, &clocks[t]);
                let fine_racy: Vec<i64> = r
                    .indices()
                    .filter(|&i| fine[i as usize].apply(kind, tid, &clocks[t]).is_err())
                    .collect();
                let adaptive_racy: Vec<i64> = r
                    .indices()
                    .filter(|&i| out.races.iter().any(|(extent, _)| extent.contains(i)))
                    .collect();
                assert_eq!(
                    adaptive_racy, fine_racy,
                    "seed {seed} step {step}: {r} by {tid:?} over {len} elements"
                );
                let mut expanded = sh.clone();
                expanded.go_fine();
                assert!(
                    sh.space_units() <= expanded.space_units(),
                    "seed {seed} step {step}: {:?} holds {} units, fine {}",
                    sh.repr_kind(),
                    sh.space_units(),
                    expanded.space_units()
                );
            }
        }
    }
}
