// expect: TERM_FENCED_SEND
//
// Known-bad, in the decision core's shape: a constructor initialises the
// `fenced` latch and orders a `Resume` for every member onto its action
// list. Initialising the latch checks nothing, and no caller bumps the
// term or probes the fence with `persist_fenced`, so an incarnation a
// successor already deposed could still resume workers into its own
// generation (DESIGN.md §13/§16).
//
// This file is a checker fixture, not part of the build.

impl AmCore {
    fn incarnate(members: Vec<WorkerId>, term: u64, out: &mut Actions) -> AmCore {
        for &w in &members {
            out.send(EndpointId::Worker(w), RtMsg::Resume { generation: 1, term });
        }
        AmCore {
            members,
            fenced: false,
        }
    }
}
