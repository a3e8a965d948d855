//! Virtual-time safety (VIRTUAL_TIME_UNSAFE): under the seeded virtual
//! clock, a thread that parks in a *real* OS wait (`join()`, raw channel
//! `recv_timeout`, stream reads, condvar waits, `thread::sleep`) never
//! advances virtual time, so the whole scheduler silently hangs. Every
//! blocking op reachable from a runtime entry point — the worker loop,
//! the AM thread, the liveness watchdog — must route through a
//! virtual-dispatching module (DESIGN.md §12/§16). There is no escape
//! hatch: a thread joins another through `time::JoinHandle::join`, which
//! parks in the scheduler until the child has left it.
//!
//! Exempt modules are the ones that *implement* the dispatch and are
//! therefore allowed to touch both arms: `time.rs` (the clock itself,
//! including thread spawn and join),
//! `bus.rs` (`Endpoint::recv*` picks the virtual or crossbeam arm),
//! `comm/` (allreduce waits park via the clock), and `transport/` (real
//! sockets only ever run in real-time mode; the builder rejects a
//! virtual clock over a socket transport).

use crate::engine::{format_path, Engine};
use crate::model::Workspace;
use crate::report::{rules, Diagnostic};

/// The crate under virtual-time discipline.
const SCOPE_CRATE: &str = "elan-rt";

/// Runtime entry points: the long-lived loops a seeded run drives.
const ENTRY_POINTS: &[&str] = &["run_worker", "am_thread", "watchdog_thread"];

/// Modules that dispatch on `TimeSource::is_virtual()` internally and may
/// therefore contain real waits on their non-virtual arm.
fn exempt_file(rel: &str) -> bool {
    rel.ends_with("/time.rs")
        || rel.ends_with("/bus.rs")
        || rel.contains("/comm/")
        || rel.contains("/transport/")
}

pub fn run(ws: &Workspace, eng: &Engine) -> Vec<Diagnostic> {
    let skip = |i: usize| {
        if ws.fixture_mode {
            return false;
        }
        let file = &ws.files[eng.fns[i].file];
        file.crate_name != SCOPE_CRATE || exempt_file(&file.rel)
    };
    let direct: Vec<Option<(String, u32)>> = eng
        .fns
        .iter()
        .map(|f| f.blocking.first().map(|b| (b.what.clone(), b.line)))
        .collect();
    let paths = eng.reach_paths(ws, &direct, &skip);

    let mut diags = Vec::new();
    for (idx, f) in eng.fns.iter().enumerate() {
        if skip(idx) || !ENTRY_POINTS.contains(&f.name.as_str()) {
            continue;
        }
        let Some((hops, detail)) = &paths[idx] else {
            continue;
        };
        diags.push(Diagnostic::new(
            rules::VIRTUAL_TIME_UNSAFE,
            ws.files[f.file].rel.clone(),
            hops[0].line,
            f.qual.clone(),
            detail.clone(),
            format!(
                "entry point `{}` reaches real OS-blocking `{detail}`: {}",
                f.name,
                format_path(hops, detail)
            ),
            "park through TimeSource (park_until / recv via the bus), and start and \
             join threads with TimeSource::spawn and its JoinHandle::join, which \
             park in the virtual scheduler (DESIGN.md §12)",
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_source;

    fn check(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            files: vec![parse_source(src, "t.rs".into(), "t".into())],
            fixture_mode: true,
        };
        let eng = Engine::build(&ws);
        run(&ws, &eng)
    }

    #[test]
    fn entry_reaching_raw_join_fires_with_path() {
        let d = check(
            "fn run_worker(h: H) { reap(h); }\n\
             fn reap(h: H) { let _ = h.join(); }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(
            d[0].message.contains("`run_worker` (t.rs:1)"),
            "{}",
            d[0].message
        );
        assert!(d[0].message.contains("`reap` (t.rs:2)"), "{}", d[0].message);
    }

    #[test]
    fn a_closure_is_no_escape_hatch() {
        let d = check(
            "fn am_thread(time: &T, h: H) { time.blocking(|| reap(h)); }\n\
             fn reap(h: H) { let _ = h.join(); }",
        );
        assert_eq!(d.len(), 1, "got {d:?}");
    }

    #[test]
    fn non_entry_functions_do_not_fire() {
        let d = check("fn helper(h: H) { let _ = h.join(); }");
        assert!(d.is_empty(), "got {d:?}");
    }

    #[test]
    fn raw_receiver_recv_fires_from_entry() {
        let d = check("fn watchdog_thread(receiver: &R) { receiver.recv_timeout(t); }");
        assert_eq!(d.len(), 1, "got {d:?}");
        assert!(d[0].detail.contains("recv_timeout"));
    }

    #[test]
    fn raw_wait_behind_a_method_call_fires_from_entry() {
        for (wait, detail) in [
            ("self.receiver.recv_timeout(t)", "recv_timeout(..)"),
            ("std::thread::sleep(t)", "thread::sleep"),
        ] {
            let d = check(&format!(
                "fn run_worker(w: W) {{ w.pump(); }}\n\
                 impl Worker {{ fn pump(&mut self) {{ {wait}; }} }}"
            ));
            assert_eq!(d.len(), 1, "{wait}: {d:?}");
            assert!(
                d[0].message.contains("`Worker::pump` (t.rs:2)"),
                "{}",
                d[0].message
            );
            assert_eq!(d[0].detail, detail);
        }
    }

    #[test]
    fn wrapped_endpoint_recv_is_not_raw() {
        let d = check("fn run_worker(rep: &R) { rep.recv_timeout(t); }");
        assert!(d.is_empty(), "virtual-aware wrapper: {d:?}");
    }
}
