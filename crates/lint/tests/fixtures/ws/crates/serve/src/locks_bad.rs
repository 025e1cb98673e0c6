fn locks_inverted(shared: &Shared) {
    let mut inflight = lock(&shared.inflight);
    lock(&shared.queue).push_back(1);
}

fn locks_waived(shared: &Shared) {
    let mut cache = lock(&shared.cache);
    // lint: allow(lock-order) reason=fixture proves the lock-order tag suppresses
    lock(&shared.settled).insert(1);
}

fn temporary_in_a_let(shared: &Shared) {
    let n = lock(&shared.cache).len();
    lock(&shared.queue).push_back(n);
}

fn guard_in_a_let(shared: &Shared) {
    let held = lock(&shared.cache);
    lock(&shared.queue).push_back(held.len());
}

fn guard_after_unwrap(shared: &Shared) {
    let held = shared.cache.lock().unwrap();
    lock(&shared.queue).push_back(held.len());
}

fn guard_in_an_option(shared: &Shared) {
    let held = Some(lock(&shared.cache));
    lock(&shared.queue).push_back(held.is_some() as u64);
}
