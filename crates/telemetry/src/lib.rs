//! # telemetry — structured run telemetry for the hppa-muldiv pipeline
//!
//! The paper's whole argument is cycle accounting, and every layer of this
//! reproduction makes decisions that deserve a paper trail: the addition
//! chain searcher trades rule applications against exhaustive-search nodes,
//! the millicode multiplier picks a strategy tier per operand, and the
//! divide-by-constant planner picks magic constants and fixup sequences per
//! divisor. This crate is the spine that records those decisions:
//!
//! * [`Event`] — one structured record per codegen/runtime decision;
//! * [`collect`] / [`emit`] — a thread-local collector that codegen stages
//!   emit into; emission is a single thread-local check when nobody is
//!   listening (codegen stays cheap by default);
//! * [`JsonlSink`] — serialise events as JSON lines to any `io::Write`;
//! * [`json`] — a dependency-free JSON value model (serialise + parse) used
//!   by the sinks, the `hppa report` tool, and the golden-schema tests;
//! * [`strategy_histogram`] — fold a stream of events into the per-strategy
//!   counts that `BENCH_*.json` files record;
//! * [`span`] — nested, timed spans (wall-clock + simulated cycles) across
//!   compile → cache → prepare → execute → verify;
//! * [`metrics`] — a counters/gauges/log2-histogram registry with
//!   Prometheus-text and JSON exporters, fed by spans and events.
//!
//! ## Example
//!
//! ```
//! use telemetry::{collect, emit, strategy_histogram, Event};
//!
//! let (result, events) = collect(|| {
//!     emit(|| Event::DivPlan {
//!         y: 7,
//!         strategy: "magic",
//!         magic_a: Some(0x92492493),
//!         shift_s: Some(2),
//!         fixup: "triple-precision",
//!         chain_len: Some(3),
//!     });
//!     42
//! });
//! assert_eq!(result, 42);
//! assert_eq!(events.len(), 1);
//! let hist = strategy_histogram(&events);
//! assert_eq!(hist.get("div/magic"), Some(&1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;

pub mod json;
pub mod metrics;
pub mod span;

use json::Json;

/// Version of the serialised telemetry/benchmark artifact schema.
///
/// Written as the `schema_version` field of `BENCH_*.json` documents and as
/// the header line of JSONL sinks. Bumped when the shape of those artifacts
/// changes; documents without the field are implicitly version 1 (the PR 1–2
/// era). Comparison tools accept versions `1..=SCHEMA_VERSION` and refuse
/// anything newer with a clear error.
pub const SCHEMA_VERSION: u64 = 2;

/// One structured telemetry record.
///
/// Variants mirror the stages of the pipeline; every variant serialises to
/// a flat JSON object with an `"event"` discriminator (see
/// [`Event::to_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// The addition-chain machinery produced a chain for `target`.
    ChainSearch {
        /// The multiplier the chain computes.
        target: i64,
        /// Chain length (instructions on the Precision, one per step).
        len: usize,
        /// `ShAdd` steps in the chain (the paper's bread-and-butter rule).
        shift_adds: u32,
        /// Plain `Add` steps.
        adds: u32,
        /// `Sub` steps (the `-1` family).
        subs: u32,
        /// Plain `Shl` steps (factoring out powers of two).
        shifts: u32,
        /// Search nodes expanded, when the exhaustive searcher ran
        /// (`None` for the O(1) rule-based generator).
        nodes_expanded: Option<u64>,
        /// Which generator produced the chain (`"rules"`, `"exhaustive"`,
        /// `"hybrid"`).
        source: &'static str,
    },
    /// The millicode multiply classified an operand into a strategy tier.
    MulStrategy {
        /// Routine family (`"switched"`, …).
        routine: &'static str,
        /// Which tier fired: `"zero-exit"`, `"one-exit"`, `"nibble-x1"`…
        /// (see `millicode::mulvar::tier_for`).
        tier: &'static str,
        /// The driving (smaller-magnitude) operand.
        operand: i64,
        /// Measured cycles, when the caller ran the routine.
        cycles: Option<u64>,
    },
    /// The millicode divide dispatched an operand pair.
    DivDispatch {
        /// Routine family (`"udiv"`, `"sdiv"`, `"small_dispatch"`).
        routine: &'static str,
        /// Which path fired (`"general"`, `"inlined-body"`, …).
        tier: &'static str,
        /// The divisor.
        divisor: i64,
        /// Measured cycles, when the caller ran the routine.
        cycles: Option<u64>,
    },
    /// The compile cache answered a lookup for a constant-operand program.
    CacheLookup {
        /// Display form of the requested operation (e.g. `"x * 10"`).
        op: String,
        /// Whether the cache already held a compiled program.
        hit: bool,
        /// Entries resident after the lookup (and any insertion).
        entries: usize,
    },
    /// A program was prepared for repeated execution.
    Prepare {
        /// What was prepared (an operation display form or routine name).
        label: String,
        /// Instruction count of the prepared program.
        len: usize,
    },
    /// The divide-by-constant planner chose a strategy for a divisor.
    DivPlan {
        /// The divisor.
        y: u32,
        /// Strategy kind (`"identity"`, `"power-of-two"`, `"even-split"`,
        /// `"magic"`).
        strategy: &'static str,
        /// The derived-method multiplier `a`, when the strategy uses one.
        magic_a: Option<u64>,
        /// The post-multiply shift `s`, when the strategy uses one.
        shift_s: Option<u32>,
        /// Post-multiply fixup kind (`"none"`, `"pair"`,
        /// `"triple-precision"`, `"sign-fixup"`).
        fixup: &'static str,
        /// Length of the shift-add chain evaluating `x * a`, if any.
        chain_len: Option<usize>,
    },
    /// The differential verifier observed something worth recording —
    /// a divergence between execution paths, a cycle-budget violation,
    /// or a sweep landmark.
    Verify {
        /// Which verification suite fired (`"divergence"`, `"budget"`).
        suite: &'static str,
        /// Compact JSON of the replayable case.
        case: String,
        /// Human-readable description of what was observed.
        detail: String,
    },
    /// The machine-code linter (`pa-lint`) checked a compiled routine.
    Lint {
        /// Display form of the routine or claim (e.g. `"x * 10"`).
        routine: String,
        /// `"proved"` (claim verified), `"clean"` (structural-only, no
        /// findings) or `"rejected"` (one or more findings).
        verdict: &'static str,
        /// Number of findings reported.
        findings: u64,
    },
    /// An armed fault plan injected a fault (chaos drills only — the
    /// unarmed production path never constructs this).
    FaultInjected {
        /// Fault kind (`"register-flip"`, `"decode-corrupt"`,
        /// `"forced-trap"`, `"shard-poison"`, `"worker-kill"`).
        kind: &'static str,
        /// Human-readable target (`"r26 bit 3"`, `"slot 2"`, `"shard 1"`,
        /// `"worker 0"`).
        target: String,
        /// When the fault fired — a cycle or step count for execution
        /// faults, `0` when the notion does not apply.
        at: u64,
    },
}

impl Event {
    /// A short `family/detail` key used by [`strategy_histogram`].
    #[must_use]
    pub fn strategy_key(&self) -> String {
        match self {
            Event::ChainSearch { source, .. } => format!("chain/{source}"),
            Event::MulStrategy { tier, .. } => format!("mul/{tier}"),
            Event::DivDispatch { tier, .. } => format!("divvar/{tier}"),
            Event::DivPlan { strategy, .. } => format!("div/{strategy}"),
            Event::CacheLookup { hit, .. } => {
                format!("cache/{}", if *hit { "hit" } else { "miss" })
            }
            Event::Prepare { .. } => "prepare/program".to_string(),
            Event::Verify { suite, .. } => format!("verify/{suite}"),
            Event::Lint { verdict, .. } => format!("lint/{verdict}"),
            Event::FaultInjected { kind, .. } => format!("fault/{kind}"),
        }
    }

    /// The flat JSON object form of the event.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = Vec::with_capacity(8);
        let mut put = |k: &str, v: Json| obj.push((k.to_string(), v));
        match self {
            Event::ChainSearch {
                target,
                len,
                shift_adds,
                adds,
                subs,
                shifts,
                nodes_expanded,
                source,
            } => {
                put("event", Json::str("chain_search"));
                put("target", Json::int(*target));
                put("len", Json::int(*len as i64));
                put("shift_adds", Json::int(i64::from(*shift_adds)));
                put("adds", Json::int(i64::from(*adds)));
                put("subs", Json::int(i64::from(*subs)));
                put("shifts", Json::int(i64::from(*shifts)));
                put("nodes_expanded", Json::opt_u64(*nodes_expanded));
                put("source", Json::str(*source));
            }
            Event::MulStrategy {
                routine,
                tier,
                operand,
                cycles,
            } => {
                put("event", Json::str("mul_strategy"));
                put("routine", Json::str(*routine));
                put("tier", Json::str(*tier));
                put("operand", Json::int(*operand));
                put("cycles", Json::opt_u64(*cycles));
            }
            Event::DivDispatch {
                routine,
                tier,
                divisor,
                cycles,
            } => {
                put("event", Json::str("div_dispatch"));
                put("routine", Json::str(*routine));
                put("tier", Json::str(*tier));
                put("divisor", Json::int(*divisor));
                put("cycles", Json::opt_u64(*cycles));
            }
            Event::CacheLookup { op, hit, entries } => {
                put("event", Json::str("cache_lookup"));
                put("op", Json::str(op));
                put("hit", Json::Bool(*hit));
                put("entries", Json::uint(*entries as u64));
            }
            Event::Prepare { label, len } => {
                put("event", Json::str("prepare"));
                put("label", Json::str(label));
                put("len", Json::uint(*len as u64));
            }
            Event::DivPlan {
                y,
                strategy,
                magic_a,
                shift_s,
                fixup,
                chain_len,
            } => {
                put("event", Json::str("div_plan"));
                put("y", Json::int(i64::from(*y)));
                put("strategy", Json::str(*strategy));
                put("magic_a", Json::opt_u64(*magic_a));
                put("shift_s", Json::opt_u64(shift_s.map(u64::from)));
                put("fixup", Json::str(*fixup));
                put("chain_len", Json::opt_u64(chain_len.map(|n| n as u64)));
            }
            Event::Verify {
                suite,
                case,
                detail,
            } => {
                put("event", Json::str("verify"));
                put("suite", Json::str(*suite));
                put("case", Json::str(case));
                put("detail", Json::str(detail));
            }
            Event::Lint {
                routine,
                verdict,
                findings,
            } => {
                put("event", Json::str("lint"));
                put("routine", Json::str(routine));
                put("verdict", Json::str(*verdict));
                put("findings", Json::uint(*findings));
            }
            Event::FaultInjected { kind, target, at } => {
                put("event", Json::str("fault_injected"));
                put("kind", Json::str(*kind));
                put("target", Json::str(target));
                put("at", Json::uint(*at));
            }
        }
        Json::Object(obj)
    }
}

thread_local! {
    static COLLECTOR: RefCell<Option<Vec<Event>>> = const { RefCell::new(None) };
}

/// Whether a collector is installed on this thread. Stages can use this to
/// skip expensive event construction entirely.
#[must_use]
pub fn is_collecting() -> bool {
    COLLECTOR.with(|c| c.borrow().is_some())
}

/// Records an event if (and only if) a [`collect`] scope is active on this
/// thread. The closure runs only when someone is listening, so building an
/// event costs one thread-local check on the production path.
pub fn emit(event: impl FnOnce() -> Event) {
    COLLECTOR.with(|c| {
        if let Some(events) = c.borrow_mut().as_mut() {
            events.push(event());
        }
    });
}

/// Runs `f` with event collection enabled on this thread, returning its
/// result together with everything emitted. Scopes nest: the innermost
/// scope receives the events, and the outer scope resumes afterwards.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let previous = COLLECTOR.with(|c| c.borrow_mut().replace(Vec::new()));
    let result = f();
    let events = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let collected = slot.take().unwrap_or_default();
        *slot = previous;
        collected
    });
    (result, events)
}

/// Folds events into `strategy_key → count` — the `strategy_histogram`
/// object of the `BENCH_*.json` schema.
#[must_use]
pub fn strategy_histogram(events: &[Event]) -> BTreeMap<String, u64> {
    let mut hist = BTreeMap::new();
    for e in events {
        *hist.entry(e.strategy_key()).or_insert(0) += 1;
    }
    hist
}

/// Writes events as JSON lines (one compact object per line).
///
/// # Example
///
/// ```
/// use telemetry::{Event, JsonlSink};
///
/// let mut buf = Vec::new();
/// let mut sink = JsonlSink::new(&mut buf);
/// sink.write(&Event::MulStrategy {
///     routine: "switched",
///     tier: "one-exit",
///     operand: 1,
///     cycles: Some(9),
/// })?;
/// let text = String::from_utf8(buf)?;
/// assert!(text.starts_with("{\"event\":\"mul_strategy\""));
/// assert!(text.ends_with('\n'));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink { writer }
    }

    /// Writes the stream header line, `{"schema_version":N}`, identifying
    /// the artifact schema ([`SCHEMA_VERSION`]) to downstream consumers.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_header(&mut self) -> io::Result<()> {
        let mut line = Json::object(vec![(
            "schema_version".to_string(),
            Json::uint(SCHEMA_VERSION),
        )])
        .to_compact_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Serialises one event as a line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, event: &Event) -> io::Result<()> {
        let mut line = event.to_json().to_compact_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())
    }

    /// Serialises a batch of events.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all(&mut self, events: &[Event]) -> io::Result<()> {
        events.iter().try_for_each(|e| self.write(e))
    }

    /// Unwraps the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::ChainSearch {
                target: 1980,
                len: 5,
                shift_adds: 4,
                adds: 0,
                subs: 0,
                shifts: 1,
                nodes_expanded: None,
                source: "rules",
            },
            Event::MulStrategy {
                routine: "switched",
                tier: "nibble-x2",
                operand: 300,
                cycles: Some(25),
            },
            Event::MulStrategy {
                routine: "switched",
                tier: "one-exit",
                operand: 1,
                cycles: None,
            },
            Event::DivPlan {
                y: 6,
                strategy: "even-split",
                magic_a: Some(0x5555_5555),
                shift_s: Some(0),
                fixup: "none",
                chain_len: Some(1),
            },
        ]
    }

    #[test]
    fn emit_outside_collect_is_dropped() {
        emit(|| panic!("must not be constructed"));
        assert!(!is_collecting());
    }

    #[test]
    fn collect_captures_in_order() {
        let ((), events) = collect(|| {
            for e in sample_events() {
                emit(|| e.clone());
            }
        });
        assert_eq!(events, sample_events());
    }

    #[test]
    fn collect_scopes_nest() {
        let ((inner_result, inner_events), outer_events) = collect(|| {
            emit(|| sample_events()[0].clone());
            let inner = collect(|| {
                emit(|| sample_events()[1].clone());
                7
            });
            emit(|| sample_events()[3].clone());
            inner
        });
        assert_eq!(inner_result, 7);
        assert_eq!(inner_events, vec![sample_events()[1].clone()]);
        assert_eq!(
            outer_events,
            vec![sample_events()[0].clone(), sample_events()[3].clone()]
        );
    }

    #[test]
    fn histogram_counts_by_key() {
        let hist = strategy_histogram(&sample_events());
        assert_eq!(hist.get("chain/rules"), Some(&1));
        assert_eq!(hist.get("mul/nibble-x2"), Some(&1));
        assert_eq!(hist.get("mul/one-exit"), Some(&1));
        assert_eq!(hist.get("div/even-split"), Some(&1));
    }

    #[test]
    fn cache_and_prepare_events_serialise_and_key() {
        let hit = Event::CacheLookup {
            op: "x * 10".to_string(),
            hit: true,
            entries: 3,
        };
        let miss = Event::CacheLookup {
            op: "x / 7u".to_string(),
            hit: false,
            entries: 4,
        };
        let prepare = Event::Prepare {
            label: "x / 7u".to_string(),
            len: 17,
        };
        assert_eq!(hit.strategy_key(), "cache/hit");
        assert_eq!(miss.strategy_key(), "cache/miss");
        assert_eq!(prepare.strategy_key(), "prepare/program");

        let j = hit.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("cache_lookup"));
        assert_eq!(j.get("op").and_then(Json::as_str), Some("x * 10"));
        assert_eq!(j.get("hit"), Some(&Json::Bool(true)));
        assert_eq!(j.get("entries").and_then(Json::as_u64), Some(3));

        let j = prepare.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("prepare"));
        assert_eq!(j.get("label").and_then(Json::as_str), Some("x / 7u"));
        assert_eq!(j.get("len").and_then(Json::as_u64), Some(17));

        let hist = strategy_histogram(&[hit, miss, prepare]);
        assert_eq!(hist.get("cache/hit"), Some(&1));
        assert_eq!(hist.get("cache/miss"), Some(&1));
        assert_eq!(hist.get("prepare/program"), Some(&1));
    }

    #[test]
    fn verify_events_serialise_and_key() {
        let e = Event::Verify {
            suite: "divergence",
            case: "{\"kind\":\"udiv_const\",\"y\":7,\"x\":21}".to_string(),
            detail: "interpreter value 0x3, oracle expects 0x4".to_string(),
        };
        assert_eq!(e.strategy_key(), "verify/divergence");
        let j = e.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("verify"));
        assert_eq!(j.get("suite").and_then(Json::as_str), Some("divergence"));
        assert!(j
            .get("case")
            .and_then(Json::as_str)
            .unwrap()
            .contains("udiv_const"));
        assert!(j
            .get("detail")
            .and_then(Json::as_str)
            .unwrap()
            .contains("oracle"));
    }

    /// One instance of every variant (`#[non_exhaustive]` — extend when a
    /// variant is added so the round-trip test keeps covering all of them).
    fn one_of_each_variant() -> Vec<Event> {
        vec![
            Event::ChainSearch {
                target: -1980,
                len: 6,
                shift_adds: 4,
                adds: 1,
                subs: 1,
                shifts: 0,
                nodes_expanded: Some(123),
                source: "exhaustive",
            },
            Event::MulStrategy {
                routine: "switched",
                tier: "nibble-x2",
                operand: -300,
                cycles: Some(25),
            },
            Event::DivDispatch {
                routine: "small_dispatch",
                tier: "inlined-body",
                divisor: 7,
                cycles: None,
            },
            Event::CacheLookup {
                op: "x * \"10\"".to_string(),
                hit: false,
                entries: 4,
            },
            Event::Prepare {
                label: "x / 7u".to_string(),
                len: 17,
            },
            Event::DivPlan {
                y: 7,
                strategy: "magic",
                magic_a: Some(0x9249_2493),
                shift_s: Some(2),
                fixup: "triple-precision",
                chain_len: None,
            },
            Event::Verify {
                suite: "budget",
                case: "{\"kind\":\"udiv_const\",\"y\":7,\"x\":21}".to_string(),
                detail: "81 cycles > budget 80\nsecond line".to_string(),
            },
            Event::Lint {
                routine: "x / 7u".to_string(),
                verdict: "proved",
                findings: 0,
            },
            Event::FaultInjected {
                kind: "register-flip",
                target: "r26 bit 3".to_string(),
                at: 12,
            },
        ]
    }

    #[test]
    fn lint_events_serialise_and_key() {
        let e = Event::Lint {
            routine: "x * 10".to_string(),
            verdict: "rejected",
            findings: 2,
        };
        assert_eq!(e.strategy_key(), "lint/rejected");
        let j = e.to_json();
        assert_eq!(j.get("event").and_then(Json::as_str), Some("lint"));
        assert_eq!(j.get("routine").and_then(Json::as_str), Some("x * 10"));
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("rejected"));
        assert_eq!(j.get("findings").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn fault_injected_events_serialise_and_key() {
        let e = Event::FaultInjected {
            kind: "shard-poison",
            target: "shard 1".to_string(),
            at: 0,
        };
        assert_eq!(e.strategy_key(), "fault/shard-poison");
        let j = e.to_json();
        assert_eq!(
            j.get("event").and_then(Json::as_str),
            Some("fault_injected")
        );
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("shard-poison"));
        assert_eq!(j.get("target").and_then(Json::as_str), Some("shard 1"));
        assert_eq!(j.get("at").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn every_event_variant_round_trips_through_json() {
        let events = one_of_each_variant();
        let mut discriminators = std::collections::BTreeSet::new();
        for event in &events {
            let j = event.to_json();
            let reparsed =
                json::parse(&j.to_compact_string()).unwrap_or_else(|e| panic!("{event:?}: {e}"));
            assert_eq!(reparsed, j, "{event:?} must survive serialise → parse");
            let disc = j
                .get("event")
                .and_then(Json::as_str)
                .expect("discriminator");
            discriminators.insert(disc.to_string());
        }
        // One distinct discriminator per variant: a collision would make the
        // JSONL stream ambiguous.
        assert_eq!(discriminators.len(), events.len());
    }

    #[test]
    fn jsonl_header_carries_the_schema_version() {
        let mut buf = Vec::new();
        let mut sink = JsonlSink::new(&mut buf);
        sink.write_header().unwrap();
        sink.write(&one_of_each_variant()[0]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header = json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(
            header.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert!(lines.next().unwrap().starts_with("{\"event\":"));
    }

    #[test]
    fn jsonl_round_trips_through_parser() {
        let mut buf = Vec::new();
        JsonlSink::new(&mut buf)
            .write_all(&sample_events())
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, event) in lines.iter().zip(sample_events()) {
            let parsed = json::parse(line).unwrap();
            assert_eq!(parsed, event.to_json());
            assert!(
                parsed.get("event").and_then(Json::as_str).is_some(),
                "every event carries a discriminator"
            );
        }
    }
}
