//! Flight-record completeness and metrics-export round-trips (ISSUE 9).
//!
//! The service merges every query's lifecycle events into one ring
//! ([`TopKService::flight_events`]). These tests pin the narration
//! contract:
//!
//! * every admitted query tells a **well-formed story**: `admitted` first,
//!   exactly one `done` last, with the engine's rounds and halt in between
//!   for cold runs, a hit-stamped `cache_probe` for cache hits, and a
//!   `coalesce_join` for single-flight riders;
//! * the Prometheus endpoint ([`TopKService::metrics_text`]) round-trips
//!   through the crate's own parser and agrees with [`ServiceMetrics`].

use std::collections::BTreeMap;
use std::sync::Arc;

use fagin_topk::obs::prometheus;
use fagin_topk::prelude::*;

fn db(n: usize) -> Arc<Database> {
    Arc::new(random::uniform_distinct(n, 3, 0xF11687))
}

/// Events grouped per query id, in ring (oldest-first) order.
fn by_query(events: &[TraceEvent]) -> BTreeMap<u32, Vec<TraceEvent>> {
    let mut map: BTreeMap<u32, Vec<TraceEvent>> = BTreeMap::new();
    for ev in events {
        map.entry(ev.query).or_default().push(*ev);
    }
    map
}

#[test]
fn every_query_narrates_a_complete_lifecycle() {
    let service = TopKService::new(db(400), ServiceConfig::default().with_workers(2));
    let cold = service
        .query(QueryRequest::new(AggSpec::Average, 8))
        .unwrap();
    assert_eq!(cold.source, AnswerSource::Cold);
    let hit = service
        .query(QueryRequest::new(AggSpec::Average, 8))
        .unwrap();
    assert!(hit.is_cache_hit());
    let other = service.query(QueryRequest::new(AggSpec::Min, 5)).unwrap();
    assert_eq!(other.source, AnswerSource::Cold);

    let stories = by_query(&service.flight_events());
    assert_eq!(
        stories.len(),
        3,
        "three queries, three ids: {:?}",
        stories.keys().collect::<Vec<_>>()
    );
    let mut cold_stories = 0;
    let mut hit_stories = 0;
    for (qid, story) in &stories {
        assert_eq!(
            story.first().map(|e| e.kind),
            Some(EventKind::Admitted),
            "query {qid} must open with admission"
        );
        assert_eq!(
            story.last().map(|e| e.kind),
            Some(EventKind::Done),
            "query {qid} must close with delivery"
        );
        let dones = story.iter().filter(|e| e.kind == EventKind::Done).count();
        assert_eq!(dones, 1, "query {qid}: exactly one delivery");
        let probes: Vec<_> = story
            .iter()
            .filter(|e| e.kind == EventKind::CacheProbe)
            .collect();
        assert_eq!(probes.len(), 1, "query {qid}: exactly one cache probe");
        if probes[0].count == 1 {
            // A hit: served straight from the certificate — the engine
            // never ran, so no rounds and no halt.
            hit_stories += 1;
            assert!(
                !story.iter().any(|e| e.kind == EventKind::RoundBoundary),
                "query {qid}: a cache hit must not narrate engine rounds"
            );
        } else {
            // A cold run: the drive loop's rounds and its halt sit
            // between admission and delivery.
            cold_stories += 1;
            assert!(
                story.iter().any(|e| e.kind == EventKind::RoundBoundary),
                "query {qid}: a cold run must narrate its rounds"
            );
            let halt_at = story
                .iter()
                .position(|e| e.kind == EventKind::Halt)
                .unwrap_or_else(|| panic!("query {qid}: a cold run must narrate its halt"));
            assert!(
                halt_at < story.len() - 1,
                "query {qid}: the halt precedes delivery"
            );
        }
    }
    assert_eq!((cold_stories, hit_stories), (2, 1));
}

#[test]
fn coalesced_riders_narrate_their_join_and_delivery() {
    // Scheduling decides whether a follower arrives while the leader is
    // still in flight, so retry fresh bursts until one coalesces (the
    // stampede suite proves this happens quickly under load).
    let db = db(3_000);
    let req = QueryRequest::new(AggSpec::Average, 200);
    for _ in 0..50 {
        let service = TopKService::new(Arc::clone(&db), ServiceConfig::default().with_workers(8));
        let tickets: Vec<_> = (0..16)
            .map(|_| service.submit(req.clone()).unwrap())
            .collect();
        for t in tickets {
            t.wait().unwrap();
        }
        let m = service.metrics();
        if m.coalesced == 0 {
            continue;
        }
        let events = service.flight_events();
        let joins: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::CoalesceJoin)
            .collect();
        // Rides resolve only after the leader commits, which is after the
        // leader's engine events drain — so every join survives in the
        // ring's newest window even when the run itself overflowed it.
        assert_eq!(
            joins.len() as u64,
            m.coalesced,
            "every coalesced ride must narrate its join"
        );
        for join in joins {
            assert_eq!(join.detail, 200, "the join records the leader's k");
            assert!(
                events
                    .iter()
                    .any(|e| e.query == join.query && e.kind == EventKind::Done),
                "rider {} must still be delivered",
                join.query
            );
        }
        return;
    }
    panic!("no query ever coalesced across 50 bursts of 16 identical queries");
}

#[test]
fn metrics_text_round_trips_and_agrees_with_service_metrics() {
    let service = TopKService::new(db(400), ServiceConfig::default());
    for k in [3usize, 6, 3] {
        service
            .query(QueryRequest::new(AggSpec::Average, k))
            .unwrap();
    }
    let text = service.metrics_text();
    let samples = prometheus::parse(&text).expect("exporter output must parse");
    let m = service.metrics();

    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
            .value
    };
    assert_eq!(value("fagin_queries_completed_total"), m.completed as f64);
    assert_eq!(value("fagin_cache_hits_total"), m.cache_hits as f64);
    assert_eq!(value("fagin_cache_misses_total"), m.cache_misses as f64);
    // Every completion — hit or cold — lands one latency observation.
    assert_eq!(
        value("fagin_query_latency_seconds_count"),
        m.completed as f64
    );
    // Only executed runs count their bound evaluations: the k=3 repeat is
    // a cache hit and records nothing.
    assert_eq!(m.cache_misses, 2);
    assert_eq!(
        value("fagin_bound_recomputations_count"),
        m.cache_misses as f64
    );

    // Histogram well-formedness: cumulative buckets, +Inf equals _count.
    for family in [
        "fagin_query_cost",
        "fagin_query_latency_seconds",
        "fagin_round_duration_seconds",
        "fagin_sorted_batch_seconds",
        "fagin_random_lookup_seconds",
        "fagin_bound_recomputations",
    ] {
        let buckets: Vec<&prometheus::Sample> = samples
            .iter()
            .filter(|s| s.name == format!("{family}_bucket"))
            .collect();
        assert!(!buckets.is_empty(), "{family} must export buckets");
        for pair in buckets.windows(2) {
            assert!(
                pair[0].value <= pair[1].value,
                "{family}: bucket counts must be cumulative"
            );
        }
        let inf = buckets
            .iter()
            .find(|s| s.label("le") == Some("+Inf"))
            .unwrap_or_else(|| panic!("{family} must have a +Inf bucket"));
        assert_eq!(inf.value, value(&format!("{family}_count")));
    }
}
