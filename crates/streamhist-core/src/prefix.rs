//! Prefix-sum machinery: the paper's `SUM`/`SQSUM` arrays (Eq. 3) and the
//! sliding `SUM'`/`SQSUM'` variant of the fixed-window algorithm (§4.5).
//!
//! Both structures answer the bucket error
//!
//! ```text
//! SQERROR[i, j] = Σ v_l²  −  (Σ v_l)² / (j − i + 1)      (paper Eq. 2)
//! ```
//!
//! in `O(1)`, which is the workhorse of every construction algorithm.

use crate::error::StreamhistError;
use std::collections::VecDeque;

/// Read interface over the sums of a (window of a) sequence: everything a
/// histogram construction needs — `O(1)` range sums, sums of squares and
/// `SQERROR` over window-relative inclusive ranges.
///
/// Implemented by [`SlidingPrefixSums`] (count-based windows, the paper's
/// model) and [`GrowableWindowSums`] (externally-driven eviction, used for
/// the time-based windows of the paper's Figure 1 description).
///
/// # Preconditions
///
/// Every range query takes an **inclusive, non-empty** window-relative
/// range: callers must guarantee `start <= end` and `end < len()`. The
/// count divisor is computed as `end - start + 1` with unsigned
/// arithmetic, so a violated `start <= end` would underflow-panic in debug
/// builds and silently wrap to a garbage divisor in release builds — the
/// default [`mean`](Self::mean) and [`sqerror`](Self::sqerror) therefore
/// `debug_assert!` the ordering, and implementations of
/// [`range_sum`](Self::range_sum)/[`range_sqsum`](Self::range_sqsum)
/// should do the same.
pub trait WindowSums {
    /// Number of points currently summarized.
    fn len(&self) -> usize;

    /// Whether the window is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of values over window-relative `[start, end]`.
    ///
    /// Requires `start <= end < len()` (see the trait-level preconditions).
    fn range_sum(&self, start: usize, end: usize) -> f64;

    /// Sum of squares over window-relative `[start, end]`.
    ///
    /// Requires `start <= end < len()` (see the trait-level preconditions).
    fn range_sqsum(&self, start: usize, end: usize) -> f64;

    /// Mean over window-relative `[start, end]`.
    ///
    /// Requires `start <= end < len()` (see the trait-level preconditions).
    fn mean(&self, start: usize, end: usize) -> f64 {
        debug_assert!(
            start <= end,
            "WindowSums::mean requires start <= end (inclusive range), got start={start}, end={end}"
        );
        self.range_sum(start, end) / (end - start + 1) as f64
    }

    /// `SQERROR` (paper Eq. 2) over window-relative `[start, end]`,
    /// clamped at 0.
    ///
    /// Requires `start <= end < len()` (see the trait-level preconditions).
    fn sqerror(&self, start: usize, end: usize) -> f64 {
        debug_assert!(
            start <= end,
            "WindowSums::sqerror requires start <= end (inclusive range), got start={start}, end={end}"
        );
        let n = (end - start + 1) as f64;
        let s = self.range_sum(start, end);
        let q = self.range_sqsum(start, end);
        (q - s * s / n).max(0.0)
    }
}

/// Read interface tailored to the streaming dynamic program (the shared
/// `HERROR` kernel in `streamhist-stream`): the three prefix views the
/// DP consumes, each in the cheapest frame the backing store can serve.
///
/// The kernel compares segment errors of the form
/// `SQSUM(e+1, c) − SUM(e+1, c)² / len`, where the left end `e` is an
/// interval endpoint whose cumulative sums were captured when the endpoint
/// was created and the right end `c` is the position being evaluated. To
/// make that subtraction exact the two sides must come from the *same*
/// frame, but the frame itself is arbitrary — only differences are ever
/// used. [`dp_sums`](Self::dp_sums) therefore exposes the store's raw
/// cumulative pairs (anchor-relative for the sliding stores, absolute for
/// whole-stream totals) without normalizing them.
///
/// Bucket-boundary chains additionally need window-framed prefix sums
/// (heights are derived from their differences, starting at window index
/// 0), served by [`chain_sum`](Self::chain_sum), and the DP's single-bucket
/// candidate `SQERROR[0, c]` is served by
/// [`head_sqerror`](Self::head_sqerror).
///
/// Implementations: [`SlidingPrefixSums`] (count windows),
/// [`GrowableWindowSums`] (time windows), [`PrefixSums`] (offline slices),
/// and the whole-stream running totals inside `streamhist-stream`'s
/// agglomerative summary.
pub trait PrefixProvider {
    /// Number of points currently summarized.
    fn len(&self) -> usize;

    /// Whether no points are currently summarized.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cumulative `(sum, sqsum)` through window-relative `idx` inclusive,
    /// in an arbitrary but internally consistent frame: only differences
    /// between two `dp_sums` results (or between a `dp_sums` result and
    /// itself at a later index, absent intervening mutation) are
    /// meaningful.
    fn dp_sums(&self, idx: usize) -> (f64, f64);

    /// Sum of values over window-relative `[0, idx]` — the window frame
    /// required by bucket-boundary chains.
    fn chain_sum(&self, idx: usize) -> f64;

    /// `SQERROR[0, idx]` (paper Eq. 2, clamped at 0): the DP's
    /// single-bucket candidate.
    fn head_sqerror(&self, idx: usize) -> f64;

    /// Number of anchor rebases performed so far (0 for stores without a
    /// moving anchor). Surfaced as a kernel diagnostic.
    fn rebases(&self) -> usize {
        0
    }
}

/// Static prefix sums over a fixed slice: `SUM[0..=n]`, `SQSUM[0..=n]`.
///
/// `sum[k]` holds the sum of the first `k` values (so `sum[0] == 0`), and
/// likewise for squares. Range queries use inclusive 0-based `[start, end]`.
#[derive(Debug, Clone)]
pub struct PrefixSums {
    sum: Vec<f64>,
    sqsum: Vec<f64>,
}

impl PrefixSums {
    /// Computes both arrays in one pass, `O(n)` time and space.
    #[must_use]
    pub fn new(data: &[f64]) -> Self {
        let mut sum = Vec::with_capacity(data.len() + 1);
        let mut sqsum = Vec::with_capacity(data.len() + 1);
        sum.push(0.0);
        sqsum.push(0.0);
        let (mut s, mut q) = (0.0, 0.0);
        for &v in data {
            s += v;
            q += v * v;
            sum.push(s);
            sqsum.push(q);
        }
        Self { sum, sqsum }
    }

    /// Number of underlying values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sum.len() - 1
    }

    /// Whether the underlying sequence is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of values in `[start, end]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics (via slice indexing) if `end >= len` ; debug-asserts
    /// `start <= end`.
    #[must_use]
    pub fn range_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.sum[end + 1] - self.sum[start]
    }

    /// Sum of squared values in `[start, end]` (inclusive).
    #[must_use]
    pub fn range_sqsum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.sqsum[end + 1] - self.sqsum[start]
    }

    /// Mean of the values in `[start, end]` — the SSE-optimal bucket height.
    #[must_use]
    pub fn mean(&self, start: usize, end: usize) -> f64 {
        self.range_sum(start, end) / (end - start + 1) as f64
    }

    /// The paper's `SQERROR[start, end]` (Eq. 2): the SSE incurred by
    /// collapsing `[start, end]` into one bucket at its mean. Clamped at 0
    /// to absorb floating-point cancellation on near-constant ranges.
    #[must_use]
    pub fn sqerror(&self, start: usize, end: usize) -> f64 {
        let n = (end - start + 1) as f64;
        let s = self.range_sum(start, end);
        let q = self.range_sqsum(start, end);
        (q - s * s / n).max(0.0)
    }
}

/// Sliding-window prefix sums: the `SUM'`/`SQSUM'` arrays of the paper's
/// fixed-window algorithm (§4.5).
///
/// Maintains cumulative sums "from some point in the past `ℓ`" so that any
/// window-relative range query is two subtractions. The anchor is moved
/// forward to the start of the window every `rebase_period` pushes (the
/// paper rebases every `n` iterations: `O(n)` work "amortized over n
/// iterations, can be ignored"). Rebasing also bounds floating-point drift,
/// because cumulative magnitudes reset relative to the window content.
///
/// Indices in queries are **window-relative**: 0 is the oldest retained
/// point, `len() - 1` the most recent.
#[derive(Debug, Clone)]
pub struct SlidingPrefixSums {
    capacity: usize,
    /// Cumulative (sum, sqsum) *including* each retained point, measured
    /// from the current anchor.
    cum: VecDeque<(f64, f64)>,
    /// Cumulative (sum, sqsum) of everything evicted since the anchor, i.e.
    /// the value "just before" window index 0.
    head: (f64, f64),
    rebase_period: usize,
    since_rebase: usize,
    rebases: usize,
}

impl SlidingPrefixSums {
    /// Creates an empty window with the paper's default rebase period of
    /// `capacity` pushes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_rebase_period(capacity, capacity)
    }

    /// Creates an empty window with an explicit rebase period (used by the
    /// ABL-REBASE ablation bench).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `rebase_period == 0`.
    #[must_use]
    pub fn with_rebase_period(capacity: usize, rebase_period: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(rebase_period > 0, "rebase period must be positive");
        Self {
            capacity,
            cum: VecDeque::with_capacity(capacity),
            head: (0.0, 0.0),
            rebase_period,
            since_rebase: 0,
            rebases: 0,
        }
    }

    /// Number of anchor moves performed so far (each pays `O(len)`; the
    /// count is the diagnostic surfaced through kernel stats).
    #[must_use]
    pub fn rebases(&self) -> usize {
        self.rebases
    }

    /// Window capacity `n`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured rebase period (anchor moves every this many pushes).
    #[must_use]
    pub fn rebase_period(&self) -> usize {
        self.rebase_period
    }

    /// Number of points currently retained (`<= capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Whether no points have been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Whether the window has reached capacity (every further push evicts).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.cum.len() == self.capacity
    }

    /// Appends `v`, evicting the temporally oldest point if the window is
    /// full. Amortized `O(1)`; every `rebase_period`-th push pays `O(len)`
    /// to move the anchor (paper §4.5).
    pub fn push(&mut self, v: f64) {
        if self.cum.len() == self.capacity {
            let evicted = self.cum.pop_front().expect("full window is non-empty");
            self.head = evicted;
        }
        let (s, q) = self.cum.back().copied().unwrap_or(self.head);
        self.cum.push_back((s + v, q + v * v));
        self.since_rebase += 1;
        if self.since_rebase >= self.rebase_period {
            self.rebase();
        }
    }

    /// Appends a whole slab, evicting oldest points as needed — the batch
    /// ingestion fast path. Equivalent to calling [`push`](Self::push) per
    /// value **bit for bit**, including the anchor-rebase schedule: the
    /// slab is split at rebase boundaries, so each rebase fires after
    /// exactly the same push it would have fired after in per-point mode
    /// (rebase timing changes the rounding of later cumulative entries, so
    /// replicating the schedule is what keeps the two modes identical).
    ///
    /// Within a chunk the rebase branch and the back-of-deque lookup are
    /// hoisted out of the loop: one rebase check and one write pass per
    /// chunk, with the running `(sum, sqsum)` kept in registers. The
    /// accumulation `(s + v, q + v*v)` is the same operation sequence as
    /// per-point pushes, so the stored values are identical.
    pub fn push_slab(&mut self, values: &[f64]) {
        let mut rest = values;
        while !rest.is_empty() {
            // The per-point invariant `since_rebase < rebase_period` holds
            // on entry, so `take >= 1` and the chunk ends exactly where the
            // next rebase would fire.
            let take = (self.rebase_period - self.since_rebase).min(rest.len());
            let (chunk, tail) = rest.split_at(take);
            let (mut s, mut q) = self.cum.back().copied().unwrap_or(self.head);
            for &v in chunk {
                if self.cum.len() == self.capacity {
                    let evicted = self.cum.pop_front().expect("full window is non-empty");
                    self.head = evicted;
                }
                s += v;
                q += v * v;
                self.cum.push_back((s, q));
            }
            self.since_rebase += take;
            if self.since_rebase >= self.rebase_period {
                self.rebase();
            }
            rest = tail;
        }
    }

    /// The raw anchor frame — `(head, cumulative entries)` exactly as
    /// stored. This is the `SUM'`/`SQSUM'` state of paper §4.5; the batch
    /// equivalence tests compare it with `==` to prove slab ingestion
    /// leaves bit-identical state behind.
    #[must_use]
    pub fn raw_frame(&self) -> ((f64, f64), Vec<(f64, f64)>) {
        (self.head, self.cum.iter().copied().collect())
    }

    /// Pushes performed since the last anchor rebase. Together with
    /// [`raw_frame`](Self::raw_frame) and [`rebases`](Self::rebases) this
    /// is the store's *complete* state: rebase timing changes the rounding
    /// of later cumulative entries, so a restore that did not resume the
    /// schedule mid-period would drift bit-wise from the original.
    #[must_use]
    pub fn since_rebase(&self) -> usize {
        self.since_rebase
    }

    /// Reassembles a store from previously captured raw state (the
    /// checkpoint/restore path). The resulting store is bit-identical to
    /// the one the state was read from: same anchor, same cumulative
    /// entries, same position in the rebase schedule.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::CorruptCheckpoint`] if the parameters violate
    /// the store's invariants (`capacity == 0`, `rebase_period == 0`, more
    /// entries than capacity, or `since_rebase >= rebase_period`).
    pub fn from_checkpoint_state(
        capacity: usize,
        rebase_period: usize,
        head: (f64, f64),
        cum: Vec<(f64, f64)>,
        since_rebase: usize,
        rebases: usize,
    ) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        if capacity == 0 {
            return Err(corrupt("window capacity must be positive"));
        }
        if rebase_period == 0 {
            return Err(corrupt("rebase period must be positive"));
        }
        if cum.len() > capacity {
            return Err(corrupt("more cumulative entries than capacity"));
        }
        // Between pushes the schedule invariant `since_rebase <
        // rebase_period` always holds (a push that reaches the period
        // rebases and zeroes the counter before returning).
        if since_rebase >= rebase_period {
            return Err(corrupt("rebase schedule position out of range"));
        }
        Ok(Self {
            capacity,
            cum: cum.into(),
            head,
            rebase_period,
            since_rebase,
            rebases,
        })
    }

    /// Moves the anchor to the start of the window: subtracts `head` from
    /// every cumulative entry. `O(len)`.
    fn rebase(&mut self) {
        let (hs, hq) = self.head;
        if hs != 0.0 || hq != 0.0 {
            for e in &mut self.cum {
                e.0 -= hs;
                e.1 -= hq;
            }
            self.head = (0.0, 0.0);
            self.rebases += 1;
        }
        self.since_rebase = 0;
    }

    fn cum_before(&self, idx: usize) -> (f64, f64) {
        if idx == 0 {
            self.head
        } else {
            self.cum[idx - 1]
        }
    }

    /// Sum of the window values in window-relative `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `end >= len`; debug-asserts `start <= end`.
    #[must_use]
    pub fn range_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.cum[end].0 - self.cum_before(start).0
    }

    /// Sum of squares of the window values in `[start, end]`.
    #[must_use]
    pub fn range_sqsum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.cum[end].1 - self.cum_before(start).1
    }

    /// Mean over window-relative `[start, end]`.
    #[must_use]
    pub fn mean(&self, start: usize, end: usize) -> f64 {
        self.range_sum(start, end) / (end - start + 1) as f64
    }

    /// `SQERROR` over window-relative `[start, end]` (paper Eq. 2), clamped
    /// at 0.
    #[must_use]
    pub fn sqerror(&self, start: usize, end: usize) -> f64 {
        let n = (end - start + 1) as f64;
        let s = self.range_sum(start, end);
        let q = self.range_sqsum(start, end);
        (q - s * s / n).max(0.0)
    }
}

impl WindowSums for SlidingPrefixSums {
    fn len(&self) -> usize {
        self.cum.len()
    }

    fn range_sum(&self, start: usize, end: usize) -> f64 {
        SlidingPrefixSums::range_sum(self, start, end)
    }

    fn range_sqsum(&self, start: usize, end: usize) -> f64 {
        SlidingPrefixSums::range_sqsum(self, start, end)
    }
}

impl WindowSums for PrefixSums {
    fn len(&self) -> usize {
        PrefixSums::len(self)
    }

    fn range_sum(&self, start: usize, end: usize) -> f64 {
        PrefixSums::range_sum(self, start, end)
    }

    fn range_sqsum(&self, start: usize, end: usize) -> f64 {
        PrefixSums::range_sqsum(self, start, end)
    }
}

/// Sliding prefix sums with **externally driven eviction**: the window
/// grows on [`push`](Self::push) and shrinks only when the caller invokes
/// [`evict_oldest`](Self::evict_oldest).
///
/// This powers the paper's *time-based* fixed windows ("the latest T
/// seconds of data produced", §1/Figure 1), where how many points leave per
/// arrival depends on timestamps rather than a fixed count. The amortized
/// rebase follows the same policy as [`SlidingPrefixSums`]: every
/// `rebase_period` operations the anchor moves to the window start.
#[derive(Debug, Clone)]
pub struct GrowableWindowSums {
    cum: VecDeque<(f64, f64)>,
    head: (f64, f64),
    rebase_period: usize,
    since_rebase: usize,
    rebases: usize,
}

impl Default for GrowableWindowSums {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl GrowableWindowSums {
    /// Creates an empty window rebasing every `rebase_period` operations.
    ///
    /// # Panics
    ///
    /// Panics if `rebase_period == 0`.
    #[must_use]
    pub fn new(rebase_period: usize) -> Self {
        assert!(rebase_period > 0, "rebase period must be positive");
        Self {
            cum: VecDeque::new(),
            head: (0.0, 0.0),
            rebase_period,
            since_rebase: 0,
            rebases: 0,
        }
    }

    /// Number of anchor moves performed so far.
    #[must_use]
    pub fn rebases(&self) -> usize {
        self.rebases
    }

    /// The configured rebase period.
    #[must_use]
    pub fn rebase_period(&self) -> usize {
        self.rebase_period
    }

    /// Operations performed since the last anchor rebase (part of the
    /// store's complete state — see
    /// [`SlidingPrefixSums::since_rebase`]).
    #[must_use]
    pub fn since_rebase(&self) -> usize {
        self.since_rebase
    }

    /// The raw anchor frame — `(head, cumulative entries)` exactly as
    /// stored (see [`SlidingPrefixSums::raw_frame`]).
    #[must_use]
    pub fn raw_frame(&self) -> ((f64, f64), Vec<(f64, f64)>) {
        (self.head, self.cum.iter().copied().collect())
    }

    /// Reassembles a store from previously captured raw state (the
    /// checkpoint/restore path); bit-identical to the original, including
    /// the position in the rebase schedule.
    ///
    /// # Errors
    ///
    /// [`StreamhistError::CorruptCheckpoint`] if the parameters violate
    /// the store's invariants (`rebase_period == 0`, or a schedule
    /// position at or past the effective rebase threshold
    /// `max(rebase_period, len)`).
    pub fn from_checkpoint_state(
        rebase_period: usize,
        head: (f64, f64),
        cum: Vec<(f64, f64)>,
        since_rebase: usize,
        rebases: usize,
    ) -> Result<Self, StreamhistError> {
        let corrupt = |reason| StreamhistError::CorruptCheckpoint { reason };
        if rebase_period == 0 {
            return Err(corrupt("rebase period must be positive"));
        }
        // At rest `since_rebase` is strictly below the threshold the last
        // tick used, and no mutation has changed `len` since that tick.
        if since_rebase >= rebase_period.max(cum.len()) {
            return Err(corrupt("rebase schedule position out of range"));
        }
        Ok(Self {
            cum: cum.into(),
            head,
            rebase_period,
            since_rebase,
            rebases,
        })
    }

    /// Appends `v` to the window. Amortized `O(1)`.
    pub fn push(&mut self, v: f64) {
        let (s, q) = self.cum.back().copied().unwrap_or(self.head);
        self.cum.push_back((s + v, q + v * v));
        self.tick();
    }

    /// Removes the temporally oldest point. Amortized `O(1)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn evict_oldest(&mut self) {
        let evicted = self.cum.pop_front().expect("evict from an empty window");
        self.head = evicted;
        self.tick();
    }

    fn tick(&mut self) {
        self.since_rebase += 1;
        // Rebase costs O(len); waiting for at least `len` operations (or
        // the configured period, whichever is larger) keeps the amortized
        // cost O(1) even when the window far outgrows the period.
        if self.since_rebase >= self.rebase_period.max(self.cum.len()) {
            let (hs, hq) = self.head;
            if hs != 0.0 || hq != 0.0 {
                for e in &mut self.cum {
                    e.0 -= hs;
                    e.1 -= hq;
                }
                self.head = (0.0, 0.0);
                self.rebases += 1;
            }
            self.since_rebase = 0;
        }
    }

    fn cum_before(&self, idx: usize) -> (f64, f64) {
        if idx == 0 {
            self.head
        } else {
            self.cum[idx - 1]
        }
    }
}

impl WindowSums for GrowableWindowSums {
    fn len(&self) -> usize {
        self.cum.len()
    }

    fn range_sum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.cum[end].0 - self.cum_before(start).0
    }

    fn range_sqsum(&self, start: usize, end: usize) -> f64 {
        debug_assert!(start <= end);
        self.cum[end].1 - self.cum_before(start).1
    }
}

// The DP frame for both sliding stores is the raw anchor-relative
// cumulative pair: subtracting two of them cancels the anchor exactly, and
// reproduces `range_sum`/`range_sqsum` over `(e, c]` bit for bit (both
// reduce to `cum[c] − cum[e]`).

impl PrefixProvider for SlidingPrefixSums {
    fn len(&self) -> usize {
        self.cum.len()
    }

    fn dp_sums(&self, idx: usize) -> (f64, f64) {
        self.cum[idx]
    }

    fn chain_sum(&self, idx: usize) -> f64 {
        self.range_sum(0, idx)
    }

    fn head_sqerror(&self, idx: usize) -> f64 {
        self.sqerror(0, idx)
    }

    fn rebases(&self) -> usize {
        self.rebases
    }
}

impl PrefixProvider for GrowableWindowSums {
    fn len(&self) -> usize {
        self.cum.len()
    }

    fn dp_sums(&self, idx: usize) -> (f64, f64) {
        self.cum[idx]
    }

    fn chain_sum(&self, idx: usize) -> f64 {
        WindowSums::range_sum(self, 0, idx)
    }

    fn head_sqerror(&self, idx: usize) -> f64 {
        WindowSums::sqerror(self, 0, idx)
    }

    fn rebases(&self) -> usize {
        self.rebases
    }
}

impl PrefixProvider for PrefixSums {
    fn len(&self) -> usize {
        PrefixSums::len(self)
    }

    fn dp_sums(&self, idx: usize) -> (f64, f64) {
        (self.sum[idx + 1], self.sqsum[idx + 1])
    }

    fn chain_sum(&self, idx: usize) -> f64 {
        PrefixSums::range_sum(self, 0, idx)
    }

    fn head_sqerror(&self, idx: usize) -> f64 {
        PrefixSums::sqerror(self, 0, idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sqerror(data: &[f64]) -> f64 {
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        data.iter().map(|v| (v - mean) * (v - mean)).sum()
    }

    #[test]
    fn prefix_range_sum_matches_naive() {
        let data = [3.0, 7.0, 5.0, 8.0, 2.0, 6.0, 4.0];
        let p = PrefixSums::new(&data);
        assert_eq!(p.len(), 7);
        for i in 0..data.len() {
            for j in i..data.len() {
                let naive: f64 = data[i..=j].iter().sum();
                assert!((p.range_sum(i, j) - naive).abs() < 1e-9, "range ({i},{j})");
            }
        }
    }

    #[test]
    fn prefix_sqerror_matches_naive() {
        let data = [3.0, 7.0, 5.0, 8.0, 2.0, 6.0, 4.0];
        let p = PrefixSums::new(&data);
        for i in 0..data.len() {
            for j in i..data.len() {
                let naive = naive_sqerror(&data[i..=j]);
                assert!(
                    (p.sqerror(i, j) - naive).abs() < 1e-8,
                    "sqerror ({i},{j}): {} vs {naive}",
                    p.sqerror(i, j)
                );
            }
        }
    }

    #[test]
    fn prefix_sqerror_zero_on_constant_run() {
        let data = [5.0; 10];
        let p = PrefixSums::new(&data);
        assert_eq!(p.sqerror(0, 9), 0.0);
        assert_eq!(p.sqerror(3, 3), 0.0);
    }

    #[test]
    fn prefix_sqerror_never_negative() {
        // Large offsets provoke FP cancellation.
        let data: Vec<f64> = (0..100).map(|i| 1.0e9 + (i % 3) as f64).collect();
        let p = PrefixSums::new(&data);
        for i in 0..data.len() {
            for j in i..data.len() {
                assert!(p.sqerror(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn prefix_empty_data() {
        let p = PrefixSums::new(&[]);
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn sliding_matches_static_on_every_window() {
        let data: Vec<f64> = (0..50).map(|i| ((i * 37) % 11) as f64).collect();
        let cap = 8;
        let mut w = SlidingPrefixSums::new(cap);
        for (t, &v) in data.iter().enumerate() {
            w.push(v);
            let lo = (t + 1).saturating_sub(cap);
            let window = &data[lo..=t];
            assert_eq!(w.len(), window.len());
            let p = PrefixSums::new(window);
            for i in 0..window.len() {
                for j in i..window.len() {
                    assert!(
                        (w.range_sum(i, j) - p.range_sum(i, j)).abs() < 1e-9,
                        "t={t} range ({i},{j})"
                    );
                    assert!(
                        (w.sqerror(i, j) - p.sqerror(i, j)).abs() < 1e-7,
                        "t={t} sqerror ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sliding_rebase_period_does_not_change_answers() {
        let data: Vec<f64> = (0..200).map(|i| ((i * 13 + 5) % 17) as f64).collect();
        let cap = 16;
        for period in [1, 3, 16, 64, 1000] {
            let mut w = SlidingPrefixSums::with_rebase_period(cap, period);
            for (t, &v) in data.iter().enumerate() {
                w.push(v);
                let lo = (t + 1).saturating_sub(cap);
                let expect: f64 = data[lo..=t].iter().sum();
                assert!(
                    (w.range_sum(0, w.len() - 1) - expect).abs() < 1e-9,
                    "period {period} t {t}"
                );
            }
        }
    }

    #[test]
    fn sliding_fill_state_transitions() {
        let mut w = SlidingPrefixSums::new(3);
        assert!(w.is_empty());
        assert!(!w.is_full());
        w.push(1.0);
        assert_eq!(w.len(), 1);
        w.push(2.0);
        w.push(3.0);
        assert!(w.is_full());
        w.push(4.0);
        assert!(w.is_full());
        assert_eq!(w.len(), 3);
        // window is now [2, 3, 4]
        assert_eq!(w.range_sum(0, 2), 9.0);
        assert_eq!(w.range_sum(0, 0), 2.0);
        assert_eq!(w.range_sum(2, 2), 4.0);
    }

    #[test]
    fn sliding_mean_and_sqerror() {
        let mut w = SlidingPrefixSums::new(4);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.mean(0, 3), 2.5);
        assert!((w.sqerror(0, 3) - 5.0).abs() < 1e-12);
        assert_eq!(w.sqerror(1, 1), 0.0);
    }

    #[test]
    fn push_slab_is_bit_identical_to_per_point_pushes() {
        let data: Vec<f64> = (0..500)
            .map(|i| 1.0e6 + ((i * 37 + 11) % 97) as f64 * 0.125)
            .collect();
        for cap in [1, 7, 16] {
            for period in [1, 5, 16, 64] {
                for slab in [1, 3, 16, 17, 100] {
                    let mut a = SlidingPrefixSums::with_rebase_period(cap, period);
                    let mut b = SlidingPrefixSums::with_rebase_period(cap, period);
                    for chunk in data.chunks(slab) {
                        for &v in chunk {
                            a.push(v);
                        }
                        b.push_slab(chunk);
                        assert_eq!(
                            a.raw_frame(),
                            b.raw_frame(),
                            "cap={cap} period={period} slab={slab}"
                        );
                    }
                    assert_eq!(a.rebases(), b.rebases());
                }
            }
        }
    }

    #[test]
    fn push_slab_handles_empty_slab() {
        let mut w = SlidingPrefixSums::new(4);
        w.push_slab(&[]);
        assert!(w.is_empty());
        w.push_slab(&[1.0, 2.0]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.range_sum(0, 1), 3.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn sliding_zero_capacity_rejected() {
        let _ = SlidingPrefixSums::new(0);
    }

    // The `start <= end` precondition is debug-asserted; release builds
    // (exercised by the CI release-test job) skip these checks entirely, so
    // the regression tests only exist under `debug_assertions`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "start <= end")]
    fn window_sums_mean_rejects_inverted_range_in_debug() {
        let mut w = SlidingPrefixSums::new(4);
        w.push(1.0);
        w.push(2.0);
        let _ = WindowSums::mean(&w, 1, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "start <= end")]
    fn window_sums_sqerror_rejects_inverted_range_in_debug() {
        let mut w = GrowableWindowSums::new(16);
        w.push(1.0);
        w.push(2.0);
        let _ = WindowSums::sqerror(&w, 1, 0);
    }
}
