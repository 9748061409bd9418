//! Shared route-provider registry.
//!
//! Building a [`RouteProvider`] is the expensive, reusable part of a
//! mapping job — a dense tier precomputes every route table of the mesh.
//! The registry shares one provider per `(mesh, routing, faults)` triple
//! across every concurrent job of the service: providers are `Sync`, so
//! one `Arc` serves any number of workers at once.
//!
//! The fault set is part of the identity. Two jobs differing *only* in
//! their dead links route differently and must never share a provider —
//! that is the correctness half of the sharing story, and it is what
//! makes `FaultSet: Hash + Eq` load-bearing.

use noc_model::{FaultSet, Mesh, RouteProvider, RoutingKind};
use noc_obs::Counter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of a shared provider: the mesh, the routing algorithm and
/// the dead links baked into it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProviderKey {
    /// The target mesh.
    pub mesh: Mesh,
    /// The routing algorithm.
    pub routing: RoutingKind,
    /// Dead links the routes must avoid.
    pub faults: FaultSet,
}

/// Hit/miss counters of a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Lookups that reused an existing provider.
    pub hits: u64,
    /// Lookups that had to build a new provider.
    pub misses: u64,
    /// Distinct providers currently cached.
    pub entries: usize,
}

/// Provider cache keyed by [`ProviderKey`], shared by every worker.
/// Every lookup counts once, as a hit or a miss, in the counters the
/// registry is built with.
#[derive(Debug, Default)]
pub struct ProviderRegistry {
    // Lookups and inserts only — the map is never iterated, so its
    // nondeterministic order can't leak into any result.
    providers: Mutex<HashMap<ProviderKey, Arc<RouteProvider>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl ProviderRegistry {
    /// An empty registry that counts its lookups in `hits` and `misses`
    /// (a service passes its `noc_registry_{hits,misses}_total`).
    pub fn new(hits: Arc<Counter>, misses: Arc<Counter>) -> Self {
        Self {
            providers: Mutex::default(),
            hits,
            misses,
        }
    }

    /// The shared provider for `(mesh, routing, faults)`, building it on
    /// first use. A fault-free key gets the size-aware auto tier (dense
    /// on small meshes, implicit beyond); a faulty key gets the
    /// fault-aware tier. The build happens under the lock so a key is
    /// built exactly once even when many jobs request it concurrently.
    pub fn provider(&self, mesh: &Mesh, routing: RoutingKind, faults: &FaultSet) -> ProviderLease {
        let key = ProviderKey {
            mesh: *mesh,
            routing,
            faults: faults.clone(),
        };
        let mut providers = self.providers.lock().expect("registry lock poisoned");
        if let Some(existing) = providers.get(&key) {
            self.hits.inc(1);
            return ProviderLease {
                provider: Arc::clone(existing),
                hit: true,
            };
        }
        self.misses.inc(1);
        let provider = Arc::new(if key.faults.is_empty() {
            RouteProvider::auto(mesh, routing)
        } else {
            RouteProvider::fault_aware(mesh, routing, key.faults.clone())
        });
        providers.insert(key, Arc::clone(&provider));
        ProviderLease {
            provider,
            hit: false,
        }
    }

    /// Hit/miss counters and cache size.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.providers.lock().expect("registry lock poisoned").len(),
        }
    }
}

/// A registry lookup result: the shared provider plus whether the call
/// reused an existing entry.
#[derive(Debug, Clone)]
pub struct ProviderLease {
    /// The shared provider.
    pub provider: Arc<RouteProvider>,
    /// True if the provider already existed in the registry.
    pub hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_model::TileId;

    #[test]
    fn same_key_reuses_the_provider() {
        let registry = ProviderRegistry::default();
        let mesh = Mesh::new(3, 3).unwrap();
        let empty = FaultSet::new();
        let a = registry.provider(&mesh, RoutingKind::Xy, &empty);
        let b = registry.provider(&mesh, RoutingKind::Xy, &empty);
        assert!(!a.hit);
        assert!(b.hit);
        assert!(Arc::ptr_eq(&a.provider, &b.provider));
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn fault_sets_are_part_of_the_provider_identity() {
        // Satellite regression: two jobs differing ONLY in their fault
        // sets must get distinct providers — a shared one would route
        // the faulty job through dead links.
        let registry = ProviderRegistry::default();
        let mesh = Mesh::new(3, 3).unwrap();
        let healthy = FaultSet::new();
        let mut faulty = FaultSet::new();
        faulty.kill_between(TileId::new(0), TileId::new(1));

        let a = registry.provider(&mesh, RoutingKind::Xy, &healthy);
        let b = registry.provider(&mesh, RoutingKind::Xy, &faulty);
        assert!(!b.hit, "distinct fault set must not hit the cache");
        assert!(!Arc::ptr_eq(&a.provider, &b.provider));

        // Each identity keeps its own entry; re-requests hit.
        assert!(registry.provider(&mesh, RoutingKind::Xy, &faulty).hit);
        assert_eq!(registry.stats().entries, 2);

        // And the faulty provider actually routes around the dead link:
        // the adjacent pair needs a detour (more than 2 routers).
        use noc_model::RouteSource;
        assert_eq!(a.provider.router_count(TileId::new(0), TileId::new(1)), 2);
        assert!(
            b.provider.router_count(TileId::new(0), TileId::new(1)) > 2,
            "direct hop is dead; must detour"
        );
    }

    #[test]
    fn routing_and_mesh_also_separate_providers() {
        let registry = ProviderRegistry::default();
        let empty = FaultSet::new();
        let mesh_a = Mesh::new(3, 3).unwrap();
        let mesh_b = Mesh::new(4, 4).unwrap();
        registry.provider(&mesh_a, RoutingKind::Xy, &empty);
        registry.provider(&mesh_a, RoutingKind::Yx, &empty);
        registry.provider(&mesh_b, RoutingKind::Xy, &empty);
        let stats = registry.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
    }
}
