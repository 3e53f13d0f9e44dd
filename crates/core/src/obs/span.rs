//! Hierarchical span profiler — zero-cost when disabled.
//!
//! A *span* is a named region of work delimited by an RAII guard over the
//! monotonic clock ([`std::time::Instant`]). Nested spans form a call tree;
//! spans with the same name under the same parent aggregate into one node
//! carrying `{calls, total, max}`, from which per-node *self time*
//! (total minus the children's totals) falls out. This is the instrument
//! the paper's time claims (§6) hang off: per-phase wall clocks say *that*
//! Phase 1 dominates, the span tree says *why* (descend vs. split vs.
//! outlier spill vs. rebuild).
//!
//! # Cost model
//!
//! Profiling is off by default. Each thread carries one flag
//! (a `thread_local!` [`Cell`]); a disabled [`enter`] is a single
//! thread-local load and branch — no clock read, no allocation, no guard
//! state beyond a `None`. An enabled one reads the clock twice and scans
//! its parent's children. So no span opens once per point: the
//! per-point work is counted instead (the `inserts` and `distance_calls`
//! run counters), and spans mark the seams that run per split, rebuild,
//! outlier-disk access, merge or phase. A profiled fit opens about the
//! same number of spans at any input size, and its Phase 1 takes about
//! as long as an unprofiled one.
//!
//! # Threading
//!
//! State is per-thread by construction: workers enable profiling locally,
//! [`take_report`] their tree when done, and the coordinator grafts it
//! under its own open span with [`merge_report`]. Because shards run
//! concurrently, a parent's self time can go negative after grafting; it
//! is clamped to zero and the per-child totals remain exact.
//!
//! ```
//! use birch_core::obs::span;
//!
//! span::set_enabled(true);
//! {
//!     let _outer = span::enter("phase1");
//!     for _ in 0..3 {
//!         let _inner = span::enter("insert");
//!     }
//! }
//! let report = span::take_report();
//! span::set_enabled(false);
//! let phase1 = &report.roots[0];
//! assert_eq!(phase1.name, "phase1");
//! assert_eq!(phase1.children[0].calls, 3);
//! ```

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

use super::json_f64;

thread_local! {
    /// Fast-path flag, split from the arena so a disabled [`enter`] costs
    /// one load + branch and never touches the `RefCell`.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PROFILER: RefCell<Profiler> = const { RefCell::new(Profiler::new()) };
}

/// One aggregated span in the thread-local arena. `children` are indices
/// into the same arena; aggregation key is (parent, name).
#[derive(Debug)]
struct Slot {
    name: &'static str,
    calls: u64,
    total: Duration,
    max: Duration,
    children: Vec<usize>,
}

#[derive(Debug)]
struct Profiler {
    /// Arena of aggregated spans; `usize::MAX` in stacks means "root".
    slots: Vec<Slot>,
    /// Top-level spans (no parent open when entered).
    roots: Vec<usize>,
    /// Indices of the currently open spans, outermost first.
    stack: Vec<usize>,
}

impl Profiler {
    const fn new() -> Self {
        Self {
            slots: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Finds or creates the child named `name` under the innermost open
    /// span (or among the roots) and pushes it on the stack.
    fn open(&mut self, name: &'static str) {
        let siblings = match self.stack.last() {
            Some(&parent) => &self.slots[parent].children,
            None => &self.roots,
        };
        let existing = siblings
            .iter()
            .copied()
            .find(|&i| self.slots[i].name == name);
        let idx = existing.unwrap_or_else(|| {
            let idx = self.slots.len();
            self.slots.push(Slot {
                name,
                calls: 0,
                total: Duration::ZERO,
                max: Duration::ZERO,
                children: Vec::new(),
            });
            match self.stack.last() {
                Some(&parent) => self.slots[parent].children.push(idx),
                None => self.roots.push(idx),
            }
            idx
        });
        self.stack.push(idx);
    }

    /// Pops the innermost open span, folding `elapsed` into its counters.
    fn close(&mut self, elapsed: Duration) {
        let Some(idx) = self.stack.pop() else {
            // Guard outlived a `take_report`/`reset` that cleared the
            // stack; nothing sensible to record.
            return;
        };
        let slot = &mut self.slots[idx];
        slot.calls += 1;
        slot.total += elapsed;
        slot.max = slot.max.max(elapsed);
    }

    fn freeze(&self, idx: usize) -> SpanNode {
        let slot = &self.slots[idx];
        SpanNode {
            name: slot.name,
            calls: slot.calls,
            total: slot.total,
            max: slot.max,
            children: slot.children.iter().map(|&c| self.freeze(c)).collect(),
        }
    }

    fn graft(&mut self, node: &SpanNode) {
        self.open(node.name);
        let idx = *self.stack.last().expect("open pushed");
        {
            let slot = &mut self.slots[idx];
            slot.calls += node.calls;
            slot.total += node.total;
            slot.max = slot.max.max(node.max);
        }
        for child in &node.children {
            self.graft(child);
        }
        self.stack.pop();
    }
}

/// Enables or disables span collection on the *current thread*. Spans
/// already open keep their guards valid either way; disabling only stops
/// new guards from sampling the clock.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether span collection is enabled on the current thread.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Opens a span named `name`, nested under the innermost open span on this
/// thread. Hold the returned guard for the duration of the region:
///
/// ```
/// # use birch_core::obs::span;
/// let _sp = span::enter("rebuild");
/// // … work …
/// // span closes when `_sp` drops
/// ```
///
/// With profiling disabled this is one thread-local load and a branch.
/// `name` must be a `'static` literal: aggregation compares and stores the
/// `&'static str` directly, never allocating per call.
#[must_use]
pub fn enter(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    PROFILER.with(|p| p.borrow_mut().open(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

/// RAII guard returned by [`enter`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when profiling was disabled at entry — drop is then a no-op.
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            PROFILER.with(|p| p.borrow_mut().close(elapsed));
        }
    }
}

/// Takes the current thread's span tree, resetting the arena. Spans still
/// open (guards alive) are snapshotted with the counts they have so far
/// and the arena is rebuilt empty — their guards then close into the void,
/// which only matters if a caller takes a report mid-span on purpose
/// (the pipeline takes its report after every phase guard has dropped).
#[must_use]
pub fn take_report() -> SpanReport {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        let roots = p.roots.clone();
        let report = SpanReport {
            roots: roots.iter().map(|&r| p.freeze(r)).collect(),
        };
        p.slots.clear();
        p.roots.clear();
        p.stack.clear();
        report
    })
}

/// Grafts `report`'s roots under the innermost span currently open on this
/// thread (or as new roots when none is open), summing counters for paths
/// that already exist. The coordinator uses this to fold worker-thread
/// reports into its own tree. No-op while profiling is disabled.
pub fn merge_report(report: &SpanReport) {
    if !enabled() {
        return;
    }
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        for root in &report.roots {
            p.graft(root);
        }
    });
}

/// Clears the current thread's span state without producing a report.
pub fn reset() {
    PROFILER.with(|p| {
        let mut p = p.borrow_mut();
        p.slots.clear();
        p.roots.clear();
        p.stack.clear();
    });
}

/// One aggregated node of a frozen span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name, as passed to [`enter`].
    pub name: &'static str,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total time across all calls (children included).
    pub total: Duration,
    /// Longest single call.
    pub max: Duration,
    /// Nested spans, in first-entered order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Time spent in this span but not in any child span. Clamped at zero:
    /// grafted concurrent children (parallel shards) can legitimately sum
    /// past the parent's wall time.
    #[must_use]
    pub fn self_time(&self) -> Duration {
        let children: Duration = self.children.iter().map(|c| c.total).sum();
        self.total.saturating_sub(children)
    }

    fn folded_into(&self, prefix: &str, out: &mut String) {
        let path = if prefix.is_empty() {
            self.name.to_string()
        } else {
            format!("{prefix};{}", self.name)
        };
        let self_us = self.self_time().as_micros();
        out.push_str(&path);
        out.push(' ');
        out.push_str(&self_us.to_string());
        out.push('\n');
        for child in &self.children {
            child.folded_into(&path, out);
        }
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"calls\":{},\"total_s\":{},\"self_s\":{},\"max_s\":{},\"children\":[",
            self.name,
            self.calls,
            json_f64(self.total.as_secs_f64()),
            json_f64(self.self_time().as_secs_f64()),
            json_f64(self.max.as_secs_f64()),
        ));
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            child.json_into(out);
        }
        out.push_str("]}");
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{:<32} calls={:<8} total={:>10.3?} self={:>10.3?} max={:>10.3?}\n",
            format!("{indent}{}", self.name),
            self.calls,
            self.total,
            self.self_time(),
            self.max,
        ));
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    fn visit(&self, f: &mut impl FnMut(&SpanNode)) {
        f(self);
        for child in &self.children {
            child.visit(f);
        }
    }
}

/// A frozen span tree taken from one thread (plus any grafted reports).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanReport {
    /// Top-level spans in first-entered order.
    pub roots: Vec<SpanNode>,
}

impl SpanReport {
    /// Whether no spans were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Looks a node up by `/`-separated path, e.g. `"phase1/insert"`.
    #[must_use]
    pub fn get(&self, path: &str) -> Option<&SpanNode> {
        let mut parts = path.split('/');
        let first = parts.next()?;
        let mut node = self.roots.iter().find(|n| n.name == first)?;
        for part in parts {
            node = node.children.iter().find(|n| n.name == part)?;
        }
        Some(node)
    }

    /// Inferno-compatible folded stacks: one line per node,
    /// `root;child;leaf <self-time-µs>`, ready for
    /// `inferno-flamegraph` / `flamegraph.pl`.
    #[must_use]
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            root.folded_into("", &mut out);
        }
        out
    }

    /// JSON array of span trees (schema v4's `"spans"` value).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, root) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            root.json_into(&mut out);
        }
        out.push(']');
        out
    }

    /// Human-readable indented tree with per-node counters.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            root.render_into(0, &mut out);
        }
        out
    }

    /// Calls `f` on every node, depth-first.
    pub fn visit(&self, mut f: impl FnMut(&SpanNode)) {
        for root in &self.roots {
            root.visit(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each test runs on its own thread so the thread-local profiler
    /// state never leaks between `cargo test` threads reusing a worker.
    fn isolated<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn disabled_enter_records_nothing() {
        isolated(|| {
            set_enabled(false);
            {
                let _a = enter("a");
                let _b = enter("b");
            }
            assert!(take_report().is_empty());
        });
    }

    #[test]
    fn nesting_builds_a_tree_and_aggregates_by_path() {
        isolated(|| {
            set_enabled(true);
            {
                let _outer = enter("outer");
                for _ in 0..3 {
                    let _inner = enter("inner");
                    let _leaf = enter("leaf");
                }
                {
                    let _other = enter("other");
                }
            }
            // Same name under a different parent is a different node.
            {
                let _top = enter("inner");
            }
            let report = take_report();
            set_enabled(false);

            assert_eq!(report.roots.len(), 2);
            let outer = report.get("outer").expect("outer");
            assert_eq!(outer.calls, 1);
            let inner = report.get("outer/inner").expect("outer/inner");
            assert_eq!(inner.calls, 3);
            assert_eq!(report.get("outer/inner/leaf").expect("leaf").calls, 3);
            assert_eq!(report.get("outer/other").expect("other").calls, 1);
            // The top-level "inner" did not merge into outer's child.
            assert_eq!(report.get("inner").expect("top inner").calls, 1);
            assert!(report.get("outer/leaf").is_none());
        });
    }

    #[test]
    fn totals_nest_and_self_time_subtracts_children() {
        isolated(|| {
            set_enabled(true);
            {
                let _outer = enter("outer");
                {
                    let _inner = enter("inner");
                    std::thread::sleep(Duration::from_millis(5));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let report = take_report();
            set_enabled(false);

            let outer = report.get("outer").expect("outer");
            let inner = report.get("outer/inner").expect("inner");
            assert!(outer.total >= inner.total, "parent covers child");
            assert!(inner.total >= Duration::from_millis(5));
            assert!(outer.self_time() >= Duration::from_millis(2));
            assert_eq!(
                outer.self_time(),
                outer.total - inner.total,
                "self = total - children"
            );
            assert!(outer.max >= outer.total, "single call: max == total");
        });
    }

    #[test]
    fn take_report_resets_state() {
        isolated(|| {
            set_enabled(true);
            {
                let _a = enter("a");
            }
            assert_eq!(take_report().roots.len(), 1);
            assert!(take_report().is_empty(), "second take starts fresh");
            set_enabled(false);
        });
    }

    #[test]
    fn merge_report_grafts_under_open_span_and_sums() {
        isolated(|| {
            set_enabled(true);
            // Build a donor report: shard { insert×2 }.
            {
                let _shard = enter("shard");
                let _i = enter("insert");
            }
            {
                let _shard = enter("shard");
                let _i = enter("insert");
            }
            let donor = take_report();
            assert_eq!(donor.get("shard").expect("shard").calls, 2);

            // Graft it twice under an open "phase1" span.
            {
                let _p = enter("phase1");
                merge_report(&donor);
                merge_report(&donor);
            }
            let report = take_report();
            set_enabled(false);

            let shard = report.get("phase1/shard").expect("grafted shard");
            assert_eq!(shard.calls, 4);
            assert_eq!(report.get("phase1/shard/insert").expect("insert").calls, 4);
            assert!(shard.total >= donor.get("shard").expect("shard").total);
        });
    }

    #[test]
    fn merge_report_is_noop_when_disabled() {
        isolated(|| {
            set_enabled(true);
            {
                let _a = enter("a");
            }
            let donor = take_report();
            set_enabled(false);
            merge_report(&donor);
            set_enabled(true);
            assert!(take_report().is_empty());
            set_enabled(false);
        });
    }

    #[test]
    fn folded_output_matches_inferno_grammar() {
        isolated(|| {
            set_enabled(true);
            {
                let _outer = enter("phase1");
                let _inner = enter("insert");
                let _leaf = enter("descend");
            }
            let report = take_report();
            set_enabled(false);

            let folded = report.folded();
            let lines: Vec<&str> = folded.lines().collect();
            assert_eq!(lines.len(), 3);
            assert!(lines[0].starts_with("phase1 "));
            assert!(lines[1].starts_with("phase1;insert "));
            assert!(lines[2].starts_with("phase1;insert;descend "));
            // Grammar: `frames <integer-weight>` with `;`-separated frames.
            for line in lines {
                let (stack, weight) = line.rsplit_once(' ').expect("space-separated");
                assert!(!stack.is_empty());
                assert!(weight.parse::<u64>().is_ok(), "weight {weight:?}");
                assert!(!stack.contains(' '), "no spaces inside frames: {stack:?}");
            }
        });
    }

    #[test]
    fn json_shape_is_well_formed() {
        isolated(|| {
            set_enabled(true);
            {
                let _a = enter("a");
                let _b = enter("b");
            }
            let report = take_report();
            set_enabled(false);

            let json = report.to_json();
            assert!(json.starts_with('['));
            assert!(json.contains("\"name\":\"a\""));
            assert!(json.contains("\"children\":[{\"name\":\"b\""));
            assert!(json.contains("\"calls\":1"));
            assert!(json.contains("\"total_s\":"));
            assert!(json.contains("\"self_s\":"));
            assert_eq!(
                json.matches('[').count(),
                json.matches(']').count(),
                "balanced brackets: {json}"
            );
        });
    }
}
