// expect: VIRTUAL_TIME_UNSAFE
//
// Known-bad, once: the worker loop reaches a real `thread::sleep`
// through `Worker::run`. The AM thread calls its *own* `run`, which only
// steps its state machine; resolving `Am::run(..)` and `self.run()` by
// name alone would wire a phantom `am_thread -> Worker::run` edge and
// report a second, invented path. Exactly one VIRTUAL_TIME_UNSAFE must fire: the worker's real one
// (DESIGN.md §16).
//
// This file is a checker fixture, not part of the build.

struct Worker;
struct Am;

fn run_worker(w: &Worker) {
    Worker::run(w);
}

fn am_thread(am: &Am) {
    Am::run(am);
}

impl Worker {
    fn run(&self) {
        std::thread::sleep(PERIOD);
    }
}

impl Am {
    fn run(&self) {
        self.step();
    }

    fn step(&self) {
        self.run();
    }
}
