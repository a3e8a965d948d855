// expect: PROTOCOL_UNEMITTED_EVENT
//
// Known-bad: `EventKind::AdjustmentAborted` is declared and named when the
// journal renders it, but no code path ever constructs it, so an operator
// reading the journal can never see one. A dead taxonomy entry claims an
// observation the runtime does not make; every journal event must be
// emitted somewhere.
//
// This file is a checker fixture, not part of the build.

enum EventKind {
    AdjustmentStarted,
    AdjustmentAborted,
}

fn on_request(journal: &mut Vec<EventKind>) {
    journal.push(EventKind::AdjustmentStarted);
}

fn name(k: &EventKind) -> &'static str {
    match k {
        EventKind::AdjustmentStarted => "adjustment_started",
        EventKind::AdjustmentAborted => "adjustment_aborted",
    }
}
