//! Acceptance test for multi-city, multi-tenant serving: one server
//! hosting three cities under a memory budget that only fits two must
//! answer every city's queries exactly like a dedicated single-city
//! server, while evicting and reloading cold tenants observably.

use atsq_core::{Engine, Partition};
use atsq_datagen::{generate, generate_queries, CityConfig, QueryGenConfig};
use atsq_service::{CityWorkload, LoadgenConfig, Request, Server, Service, ServiceConfig};
use atsq_tenant::{CityId, CityRegistry, EngineFactory, LoadedCity, TenantState};
use atsq_types::{Dataset, Query};
use std::sync::Arc;

fn city(seed: u64) -> (Dataset, Vec<Query>) {
    let dataset = generate(&CityConfig::tiny(seed)).unwrap();
    let queries = generate_queries(
        &dataset,
        &QueryGenConfig {
            query_points: 3,
            acts_per_point: 2,
            ..QueryGenConfig::default()
        },
        8,
    );
    (dataset, queries)
}

fn factory(seed: u64) -> EngineFactory {
    Arc::new(move || {
        let dataset = generate(&CityConfig::tiny(seed)).map_err(|e| e.to_string())?;
        let (engine, _) =
            Engine::build_gat(&dataset, 1, Partition::Hash, None).map_err(|e| e.to_string())?;
        Ok(LoadedCity {
            dataset: Arc::new(dataset),
            engine: Arc::new(engine),
            loaded_from_snapshot: false,
        })
    })
}

/// Estimated resident bytes of one tiny city, measured by loading it
/// into a throwaway registry.
fn one_city_bytes() -> u64 {
    let probe = CityRegistry::new(CityId::new("probe").unwrap(), None);
    probe
        .add_city(CityId::new("probe").unwrap(), factory(41))
        .unwrap();
    drop(probe.resolve(&CityId::new("probe").unwrap()).unwrap());
    probe.cities()[0].resident_bytes
}

#[test]
fn three_cities_under_two_city_budget_serve_exactly_and_evict_observably() {
    const CITIES: [(&str, u64); 3] = [("tokyo", 41), ("kyoto", 42), ("nara", 43)];
    // A budget that holds two resident tiny cities but not three.
    let budget = one_city_bytes() * 5 / 2;

    let registry = CityRegistry::new(CityId::new("tokyo").unwrap(), Some(budget));
    for (name, seed) in CITIES {
        registry
            .add_city(CityId::new(name).unwrap(), factory(seed))
            .unwrap();
    }
    let service = Service::start_registry(
        Arc::new(registry),
        ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        },
    );
    let handle = service.handle();
    let server = Server::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();

    // Round-robin load across all three cities, verifying every
    // response against each city's own reference engine. With three
    // cities live and room for two, the cold city keeps cycling in.
    let workloads: Vec<CityWorkload> = CITIES
        .iter()
        .map(|(name, seed)| CityWorkload {
            city: Some((*name).to_owned()),
            dataset: generate(&CityConfig::tiny(*seed)).unwrap(),
        })
        .collect();
    let cfg = LoadgenConfig {
        concurrency: 3,
        requests: 90,
        pool: 6,
        k: 5,
        verify: true,
        ..LoadgenConfig::default()
    };
    let report = atsq_service::run_loadgen_cities(&addr, &workloads, &cfg).unwrap();
    assert_eq!(report.ok, 90, "{report}");
    assert_eq!(report.incorrect, 0, "{report}");

    // Every tenant served its third of the traffic.
    let infos = handle.cities();
    assert_eq!(infos.len(), 3);
    for info in &infos {
        assert!(
            info.queries >= 30,
            "{}: {} queries",
            info.city,
            info.queries
        );
    }

    // Per-city answers are byte-identical to a dedicated single-city
    // server hosting the same dataset.
    for (name, seed) in CITIES {
        let (dataset, queries) = city(seed);
        let dedicated = Service::build(dataset, ServiceConfig::default()).unwrap();
        for query in &queries {
            let request = Request::Atsq {
                query: query.clone(),
                k: 5,
            };
            let lease = handle.resolve_city(Some(name)).unwrap();
            let multi = handle
                .submit_leased(lease, request.clone(), None)
                .unwrap()
                .wait()
                .unwrap();
            let single = dedicated.handle().call(request).unwrap();
            assert_eq!(
                multi.results().unwrap(),
                single.results().unwrap(),
                "{name} diverged from its dedicated server"
            );
        }
        dedicated.shutdown();
    }

    // Unload-then-query reloads on demand, and the reload is visible
    // in the per-city load counter.
    let loads_before = handle
        .cities()
        .iter()
        .find(|i| i.city.as_str() == "kyoto")
        .unwrap()
        .loads;
    // The last reply's lease drops just after `wait` returns, so an
    // immediate unload can race a still-draining request.
    let mut unloaded = false;
    for _ in 0..100 {
        if handle.city_unload("kyoto").is_ok() {
            unloaded = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(unloaded, "kyoto never quiesced for unload");
    drop(handle.resolve_city(Some("kyoto")).unwrap());
    let kyoto = handle
        .cities()
        .into_iter()
        .find(|i| i.city.as_str() == "kyoto")
        .unwrap();
    assert_eq!(kyoto.state, TenantState::Ready);
    assert_eq!(
        kyoto.loads,
        loads_before + 1,
        "unload-then-query must reload"
    );

    // That cold load ran an eviction pass with nothing in flight, so
    // the accountant settles at no more than two resident tenants —
    // and either that pass or an earlier one had to evict somebody.
    // (During loadgen all cities are usually in flight, which rightly
    // blocks eviction, so only a quiescent load pins this down.)
    let infos = handle.cities();
    let ready = infos
        .iter()
        .filter(|i| i.state == TenantState::Ready)
        .count();
    assert!(ready <= 2, "budget for two left {ready} cities resident");
    let evictions: u64 = infos.iter().map(|i| i.evictions).sum();
    assert!(evictions >= 1, "no eviction under a two-city budget");

    // The whole tenant surface is scrapable.
    let page = handle.metrics_text();
    for family in [
        "atsq_city_state",
        "atsq_city_resident_bytes",
        "atsq_city_queries_total",
        "atsq_city_evictions_total",
    ] {
        assert!(page.contains(family), "metrics page lacks {family}");
    }

    server.stop();
    service.shutdown();
}
