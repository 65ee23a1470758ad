//! The simulated work of every suite application, pinned as an explicit
//! table: kernel events fired, virtual runtime, messages sent, bytes sent
//! and the application checksum, each at 4 processors, test scale, on the
//! Berkeley NOW baseline.
//!
//! A refactor of any layer below the applications must leave this table
//! unchanged: it is the "same behaviour" guard that green functional tests
//! alone do not give (a change can keep every checksum and still simulate
//! different traffic). A mismatch prints the whole recomputed table, so an
//! intended change to the simulated work is re-pinned in one step.

use nowlab::apps::{suite_scaled, SuiteScale};
use nowlab::core::{RunOutcome, RunSpec};

/// One application's pinned work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Work {
    events: u64,
    runtime_ns: u64,
    sends: u64,
    bytes: u64,
    check: u64,
}

impl Work {
    fn of(out: &RunOutcome) -> Self {
        Work {
            events: out.events,
            runtime_ns: out.runtime.as_nanos(),
            sends: out.stats.total_sends(),
            bytes: out
                .stats
                .per_proc
                .iter()
                .map(|c| c.bytes_short + c.bytes_bulk)
                .sum(),
            check: out.check,
        }
    }
}

const GOLDEN: &[(&str, Work)] = &[
    (
        "Radix",
        Work {
            events: 102585,
            runtime_ns: 18983568,
            sends: 12342,
            bytes: 394056,
            check: 0x00000000080168ca,
        },
    ),
    (
        "EM3D(write)",
        Work {
            events: 30199,
            runtime_ns: 7813720,
            sends: 3634,
            bytes: 101752,
            check: 0x3c9f07263021e87a,
        },
    ),
    (
        "EM3D(read)",
        Work {
            events: 17536,
            runtime_ns: 15051360,
            sends: 5068,
            bytes: 141904,
            check: 0x3c9f07263021e87a,
        },
    ),
    (
        "Sample",
        Work {
            events: 53532,
            runtime_ns: 11464400,
            sends: 6303,
            bytes: 176472,
            check: 0x000007d4053c1d4d,
        },
    ),
    (
        "Barnes",
        Work {
            events: 73198,
            runtime_ns: 87116699,
            sends: 19598,
            bytes: 576196,
            check: 0x05e997e801d5e823,
        },
    ),
    (
        "P-Ray",
        Work {
            events: 11090,
            runtime_ns: 17664400,
            sends: 1235,
            bytes: 36956,
            check: 0x6473441e5ba47b2c,
        },
    ),
    (
        "Murphi",
        Work {
            events: 4064,
            runtime_ns: 50997800,
            sends: 1034,
            bytes: 34100,
            check: 0x978030cca8795330,
        },
    ),
    (
        "Connect",
        Work {
            events: 3189,
            runtime_ns: 5970600,
            sends: 449,
            bytes: 12572,
            check: 0x0001b30000079195,
        },
    ),
    (
        "NOW-sort",
        Work {
            events: 1187,
            runtime_ns: 85146306,
            sends: 257,
            bytes: 623408,
            check: 0x0000000000002000,
        },
    ),
    (
        "Radb",
        Work {
            events: 815,
            runtime_ns: 1174360,
            sends: 157,
            bytes: 101124,
            check: 0x00000000080168ca,
        },
    ),
];

#[test]
fn every_app_simulates_the_pinned_work() {
    let spec = RunSpec::new(4).with_event_limit(300_000_000);
    let got: Vec<(String, Work)> = suite_scaled(SuiteScale::Test)
        .iter()
        .map(|app| {
            let out = app.run(&spec);
            assert!(out.completed, "{} did not complete", app.name());
            (app.name().to_string(), Work::of(&out))
        })
        .collect();
    let listing: String = got
        .iter()
        .map(|(name, w)| {
            format!(
                "    (\n        {name:?},\n        Work {{\n            events: {},\n            \
                 runtime_ns: {},\n            sends: {},\n            bytes: {},\n            \
                 check: 0x{:016x},\n        }},\n    ),\n",
                w.events, w.runtime_ns, w.sends, w.bytes, w.check
            )
        })
        .collect();
    assert_eq!(
        got.len(),
        GOLDEN.len(),
        "table shape; recomputed:\n{listing}"
    );
    for ((name, w), (want_name, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, want_name, "table order; recomputed:\n{listing}");
        assert_eq!(w, want, "{name} drifted; recomputed table:\n{listing}");
    }
}
