//! Empty. `netsim`, `dist` and `serve` hand messages between threads over
//! `std::sync::mpsc`; this package stays only because the benchmark's
//! lockfile records it as their dependency, and goes with those edges.
