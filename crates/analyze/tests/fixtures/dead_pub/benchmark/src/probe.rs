// Fixture: benchmark sources are read for names, never linted.
pub fn never_linted() -> std::time::Instant {
    alpha::used_by_benchmark();
    std::time::Instant::now()
}
