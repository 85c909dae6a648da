//! Tiny-size self-test: every workload runs end to end, every named
//! metric comes out present and finite, and the correctness gate
//! rejects a deliberately altered outcome.

use awsad_core::AdaptiveStep;
use awsad_perfbench::gate::{outcome_digest, Digest};
use awsad_perfbench::procstat::TaskLedger;
use awsad_perfbench::report::METRICS;
use awsad_perfbench::{run, Options, Size, Workload};
use awsad_reach::Deadline;

fn tiny(workload: Workload, trace: bool, corrupt: Option<u64>) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        size: Size::TINY,
        out_dir: None,
        corrupt,
        probe_exe: Some(env!("CARGO_BIN_EXE_awsad-perfbench").into()),
    }
}

#[test]
fn every_metric_is_present_and_finite_on_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run(&tiny(workload, trace, None)).expect("tiny run completes");
            assert!(
                out.correct(),
                "{}: gate failed {}/{}: {:?}",
                workload.name(),
                out.gate.failed,
                out.gate.attempted,
                out.gate.first_failure
            );
            out.values.check(true).expect("end-to-end metrics");
            for m in METRICS.iter().filter(|m| m.end_to_end) {
                let v = out.values.get(m.name).expect("checked above");
                assert!(
                    v > 0.0,
                    "{}: {} = {v} must be positive",
                    workload.name(),
                    m.name
                );
            }
            if trace {
                out.values.check(false).expect("per-layer metrics");
            } else {
                assert!(
                    out.record.contains(", probe "),
                    "{}: an untraced run holds a set-up window in a fresh process:\n{}",
                    workload.name(),
                    out.record
                );
            }
        }
    }
}

#[test]
fn the_gate_rejects_an_altered_outcome() {
    for workload in Workload::ALL {
        let out = run(&tiny(workload, false, Some(3))).expect("tiny run completes");
        assert!(
            !out.correct(),
            "{}: altered outcome passed the gate",
            workload.name()
        );
        assert_eq!(
            out.gate.failed,
            1,
            "{}: exactly the altered request fails",
            workload.name()
        );
    }
}

#[test]
fn one_changed_field_changes_the_digest() {
    let step = AdaptiveStep {
        step: 9,
        deadline: Deadline::Within(4),
        window: 4,
        previous_window: 5,
        current_alarm: false,
        complementary_alarms: vec![7],
    };
    let base = outcome_digest(3, false, &step);
    let variants = [
        AdaptiveStep {
            deadline: Deadline::Beyond,
            ..step.clone()
        },
        AdaptiveStep {
            window: 5,
            ..step.clone()
        },
        AdaptiveStep {
            current_alarm: true,
            ..step.clone()
        },
        AdaptiveStep {
            complementary_alarms: vec![],
            ..step.clone()
        },
    ];
    for v in &variants {
        assert_ne!(outcome_digest(3, false, v), base);
    }
    assert_ne!(outcome_digest(4, false, &step), base);
    assert_ne!(outcome_digest(3, true, &step), base);
    let (mut a, mut b) = (Digest::default(), Digest::default());
    a.word(1);
    a.word(2);
    b.word(2);
    b.word(1);
    assert_ne!(a.finish(), b.finish(), "order matters");
}

#[test]
fn threads_born_and_exiting_mid_phase_are_counted() {
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    let mut ledger = TaskLedger::start();
    let (ready_tx, ready_rx) = channel();
    let (exit_tx, exit_rx) = channel::<()>();
    let worker = std::thread::Builder::new()
        .name("awsad-worker-9".into())
        .spawn(move || {
            let end = Instant::now() + Duration::from_millis(30);
            let mut x = 0u64;
            while Instant::now() < end {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            ready_tx.send(()).expect("main waits");
            exit_rx.recv().expect("main releases");
        })
        .expect("spawn");
    ready_rx.recv().expect("worker ran");
    ledger.sample();
    exit_tx.send(()).expect("worker waits");
    worker.join().expect("worker exits cleanly");
    let times = ledger.finish();
    let runtime = times.layer("runtime");
    assert!(
        runtime.run_ns >= 20_000_000,
        "a thread born and gone mid-phase keeps its last-seen CPU time: {runtime:?}"
    );
}
