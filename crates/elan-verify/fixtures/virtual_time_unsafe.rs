// expect: VIRTUAL_TIME_UNSAFE
//
// Known-bad: the worker loop reaps a helper thread with a raw
// `join()`. Under the seeded virtual clock a real OS wait never
// advances virtual time, so the whole scheduler hangs silently. The
// thread must be started with `TimeSource::spawn` and joined through its
// handle, which parks in the scheduler until the child has left it
// (DESIGN.md §12/§16).
//
// This file is a checker fixture, not part of the build.

fn run_worker(handle: JoinHandle) {
    reap(handle);
}

fn reap(handle: JoinHandle) {
    let _ = handle.join();
}
