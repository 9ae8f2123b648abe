//! Feature-agnostic contract: the same calls compile and pass with the
//! `obs` feature on and off. On, they record; off, every primitive is
//! zero-sized, every readout is zero/empty and nothing is retained.

use idf_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, QueryOutcome, Sampler,
    SlowQueryLog,
};

#[test]
fn primitives_record_when_on_and_vanish_when_off() {
    let on = idf_obs::enabled();
    assert_eq!(on, cfg!(feature = "obs"));

    let c = Counter::new();
    c.inc();
    c.add(2);
    assert_eq!(c.get(), if on { 3 } else { 0 });

    let g = Gauge::new();
    g.set(5);
    g.add(2);
    g.sub(1);
    g.set_max(9);
    assert_eq!(g.get(), if on { 9 } else { 0 });

    let h = Histogram::new();
    h.record(7);
    assert_eq!(h.count(), u64::from(on));
    assert_eq!(h.sum(), if on { 7 } else { 0 });
    if !on {
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    let s = Sampler::new();
    assert_eq!(s.tick(), on, "the first tick samples only when on");

    let log = SlowQueryLog::new();
    log.push("SELECT 1", 1, QueryOutcome::Finished);
    assert_eq!(log.len(), usize::from(on));
    assert_eq!(log.is_empty(), !on);
    assert_eq!(log.entries().len(), usize::from(on));

    if !on {
        assert_eq!(std::mem::size_of::<Counter>(), 0);
        assert_eq!(std::mem::size_of::<Gauge>(), 0);
        assert_eq!(std::mem::size_of::<Histogram>(), 0);
        assert_eq!(std::mem::size_of::<Sampler>(), 0);
    }
}

#[test]
fn registry_exposition_is_empty_exactly_when_off() {
    let m = MetricsRegistry::new();
    m.append_rows.add(4);
    m.chain_walk.record(2);
    let text = m.prometheus();
    if idf_obs::enabled() {
        assert!(text.contains("idf_storage_append_rows_total 4"));
    } else {
        assert!(text.is_empty());
        assert_eq!(m.append_rows.get(), 0);
    }
    m.reset();
    assert_eq!(m.append_rows.get(), 0);
    // The process-global registry is the same object on every call.
    assert!(std::ptr::eq(idf_obs::global(), idf_obs::global()));
}
