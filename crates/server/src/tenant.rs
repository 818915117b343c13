//! Multi-tenant state: named structures created on demand, each owned by
//! a [`Managed`] guard so a background AIMD controller retunes it under
//! its *own* traffic.
//!
//! The three service personalities map onto the three 2D structures:
//!
//! | personality | structure | produce | consume |
//! |-------------|-----------|---------|---------|
//! | task-queue | `Queue2D<u64>` | submit ticket | fetch ticket |
//! | object-pool | `Stack2D<u64>` | release object | acquire object |
//! | rate-limiter | `Counter2D` | one hit token | — (decisions read the count) |
//!
//! A tenant key is `(personality, name)` — namespaces are per personality,
//! so a task-queue and a rate-limiter may share a name without clashing.
//! Tenants live for the life of the server (there is no delete verb in
//! protocol v1), which is what lets connection threads hold `Arc<Tenant>`s
//! and per-frame [`OpsHandle`]s without any lifetime gymnastics.
//!
//! When the server runs with telemetry, every tenant gets its own
//! [`Registry`] scope named `<personality>/<name>`; the structure's op
//! samples, shifts and retunes *and* its controller's
//! observation→decision→outcome triples all land in that one scope.

use std::collections::HashMap;
use std::time::Duration;

use stack2d::sync::atomic::{AtomicU64, Ordering};
use stack2d::sync::{Arc, Mutex};
use stack2d::{
    Counter2D, ElasticTarget, MetricsSnapshot, OpsHandle, Queue2D, RelaxedOps, Stack2D, WindowInfo,
};
use stack2d_adaptive::{AdaptiveBuilder, AimdController, Managed};
use stack2d_telemetry::Registry;

use crate::protocol::{ErrorCode, Personality, Response};

/// Hard ceiling on the `cost` of one rate-limiter hit: bounds the work a
/// single request can demand of the server.
pub const MAX_ACQUIRE_COST: u32 = 4096;

/// How each tenant's structure and controller are configured at creation.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Sub-structure headroom the controller can grow width into.
    pub elastic_capacity: usize,
    /// Hard relaxation budget handed to the AIMD controller.
    pub k_budget: usize,
    /// Controller tick cadence.
    pub cadence: Duration,
    /// Telemetry op-sampling period (1 in N; only meaningful with a
    /// registry attached).
    pub sample_every: u32,
    /// Ceiling on concurrently live tenants across all personalities.
    pub max_tenants: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            elastic_capacity: 8,
            k_budget: 1024,
            cadence: Duration::from_millis(5),
            sample_every: 64,
            max_tenants: 1024,
        }
    }
}

/// The personality-specific structure behind one tenant, each under its
/// own managed controller.
enum Cell {
    Queue(Managed<Queue2D<u64>>),
    Pool(Managed<Stack2D<u64>>),
    Limiter {
        counter: Managed<Counter2D>,
        limit: u64,
        /// Count at the last reset; decisions compare `value - floor`
        /// against `limit`.
        floor: AtomicU64,
    },
}

/// One named, managed structure.
pub struct Tenant {
    personality: Personality,
    name: String,
    cell: Cell,
}

impl Tenant {
    /// The tenant's personality.
    pub fn personality(&self) -> Personality {
        self.personality
    }

    /// The tenant's name within its personality namespace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A produce/consume handle for this tenant's structure, seeded so a
    /// connection's handles replay the same locality/hop sequence across
    /// frames. Counters produce (one hit per produced value) and never
    /// consume.
    pub fn ops_handle(&self, seed: u64) -> Box<dyn OpsHandle<u64> + '_> {
        match &self.cell {
            Cell::Queue(q) => Box::new(RelaxedOps::ops_handle_seeded(&**q, seed)),
            Cell::Pool(p) => Box::new(RelaxedOps::ops_handle_seeded(&**p, seed)),
            Cell::Limiter { counter, .. } => {
                Box::new(RelaxedOps::ops_handle_seeded(&**counter, seed))
            }
        }
    }

    /// Whether produce/consume are meaningful for this tenant (false for
    /// the rate-limiter, which is driven through acquire/reset).
    pub fn supports_ops(&self) -> bool {
        !matches!(self.cell, Cell::Limiter { .. })
    }

    /// The admission decision after hits have been counted: the (relaxed)
    /// observed count since the last reset versus the limit. `None` for
    /// non-limiter tenants.
    pub fn limiter_decision(&self) -> Option<Response> {
        match &self.cell {
            Cell::Limiter { counter, limit, floor } => {
                let value = counter.value() as u64;
                let observed = value.saturating_sub(floor.load(Ordering::Relaxed));
                Some(Response::Decision { allowed: observed <= *limit, observed, limit: *limit })
            }
            _ => None,
        }
    }

    /// Starts a fresh rate-limiter window (observed count restarts at
    /// zero). `false` for non-limiter tenants.
    pub fn limiter_reset(&self) -> bool {
        match &self.cell {
            Cell::Limiter { counter, floor, .. } => {
                floor.store(counter.value() as u64, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    fn window(&self) -> WindowInfo {
        match &self.cell {
            Cell::Queue(q) => q.window(),
            Cell::Pool(p) => p.window(),
            Cell::Limiter { counter, .. } => counter.window(),
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        match &self.cell {
            Cell::Queue(q) => q.metrics(),
            Cell::Pool(p) => p.metrics(),
            Cell::Limiter { counter, .. } => counter.metrics(),
        }
    }

    fn reported_bound(&self) -> usize {
        match &self.cell {
            Cell::Queue(q) => ElasticTarget::reported_bound(&**q),
            Cell::Pool(p) => ElasticTarget::reported_bound(&**p),
            Cell::Limiter { counter, .. } => ElasticTarget::reported_bound(&**counter),
        }
    }

    /// Window-descriptor swings so far — the observable trace of the
    /// tenant's controller acting.
    pub fn retunes(&self) -> u64 {
        self.metrics().retunes
    }

    /// The live snapshot served for a `Stats` request.
    pub fn stats(&self) -> Response {
        let window = self.window();
        let metrics = self.metrics();
        Response::Stats {
            width: window.width() as u32,
            depth: window.depth() as u32,
            shift: window.shift() as u32,
            generation: window.generation(),
            k_bound: self.reported_bound() as u64,
            ops: metrics.ops,
            retunes: metrics.retunes,
        }
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("personality", &self.personality.name())
            .field("name", &self.name)
            .finish()
    }
}

/// One name-keyed table per personality, indexed by [`slot`]. Keying by
/// personality first lets [`TenantMap::get`] look a `&str` up without
/// building an owned key.
type Namespaces = [HashMap<String, Arc<Tenant>>; 3];

/// The index of a personality's namespace in [`Namespaces`].
fn slot(personality: Personality) -> usize {
    match personality {
        Personality::TaskQueue => 0,
        Personality::RateLimiter => 1,
        Personality::ObjectPool => 2,
    }
}

/// The server's tenant table: get-or-create by `(personality, name)`.
pub struct TenantMap {
    tenants: Mutex<Namespaces>,
    config: TenantConfig,
    registry: Option<Arc<Registry>>,
}

impl TenantMap {
    /// An empty table; tenants created through it use `config`, and — when
    /// a registry is given — get a telemetry scope each.
    pub fn new(config: TenantConfig, registry: Option<Arc<Registry>>) -> Self {
        TenantMap { tenants: Mutex::new(Default::default()), config, registry }
    }

    /// Looks a tenant up without creating it; allocates nothing.
    pub fn get(&self, personality: Personality, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.lock()[slot(personality)].get(name).cloned()
    }

    /// Returns the named tenant, creating it on first use; the bool is
    /// `true` when this call created it. `limit` only matters for fresh
    /// rate-limiters.
    ///
    /// # Errors
    ///
    /// `Response::Error { code: TenantCapacity }` (pre-shaped for the
    /// wire) when the table is full.
    pub fn get_or_create(
        &self,
        personality: Personality,
        name: &str,
        limit: u64,
    ) -> Result<(Arc<Tenant>, bool), Response> {
        let mut tenants = self.tenants.lock();
        if let Some(t) = tenants[slot(personality)].get(name) {
            return Ok((Arc::clone(t), false));
        }
        if tenants.iter().map(HashMap::len).sum::<usize>() >= self.config.max_tenants {
            return Err(Response::Error {
                code: ErrorCode::TenantCapacity,
                detail: format!("table full ({})", self.config.max_tenants),
            });
        }
        let tenant = Arc::new(self.build(personality, name, limit)?);
        tenants[slot(personality)].insert(name.to_string(), Arc::clone(&tenant));
        Ok((tenant, true))
    }

    /// Every live tenant, in no particular order.
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        self.tenants.lock().iter().flat_map(HashMap::values).cloned().collect()
    }

    fn scope_recorder(
        &self,
        personality: Personality,
        name: &str,
    ) -> Option<Arc<dyn stack2d::Recorder>> {
        self.registry.as_ref().map(|r| {
            r.scope(&format!("{}/{name}", personality.name())) as Arc<dyn stack2d::Recorder>
        })
    }

    fn build(&self, personality: Personality, name: &str, limit: u64) -> Result<Tenant, Response> {
        let cfg = &self.config;
        let controller = AimdController::new(cfg.k_budget);
        let recorder = self.scope_recorder(personality, name);
        let invalid = |e: stack2d::ParamsError| Response::Error {
            code: ErrorCode::BadRequest,
            detail: format!("tenant config rejected: {e:?}"),
        };
        let cell = match personality {
            Personality::TaskQueue => {
                let mut b =
                    Queue2D::<u64>::builder().width(1).elastic_capacity(cfg.elastic_capacity);
                if let Some(r) = recorder {
                    b = b.recorder(r).sample_every(cfg.sample_every);
                }
                Cell::Queue(b.adaptive(controller, cfg.cadence).map_err(invalid)?)
            }
            Personality::ObjectPool => {
                let mut b =
                    Stack2D::<u64>::builder().width(1).elastic_capacity(cfg.elastic_capacity);
                if let Some(r) = recorder {
                    b = b.recorder(r).sample_every(cfg.sample_every);
                }
                Cell::Pool(b.adaptive(controller, cfg.cadence).map_err(invalid)?)
            }
            Personality::RateLimiter => {
                let mut b = Counter2D::builder().width(1).elastic_capacity(cfg.elastic_capacity);
                if let Some(r) = recorder {
                    b = b.recorder(r).sample_every(cfg.sample_every);
                }
                Cell::Limiter {
                    counter: b.adaptive(controller, cfg.cadence).map_err(invalid)?,
                    limit,
                    floor: AtomicU64::new(0),
                }
            }
        };
        Ok(Tenant { personality, name: name.to_string(), cell })
    }
}

impl std::fmt::Debug for TenantMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live: usize = self.tenants.lock().iter().map(HashMap::len).sum();
        f.debug_struct("TenantMap").field("tenants", &live).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> TenantMap {
        TenantMap::new(
            TenantConfig { cadence: Duration::from_millis(1), ..TenantConfig::default() },
            None,
        )
    }

    #[test]
    fn namespaces_are_per_personality() {
        let map = map();
        let (q, fresh_q) = map.get_or_create(Personality::TaskQueue, "orders", 0).unwrap();
        let (l, fresh_l) = map.get_or_create(Personality::RateLimiter, "orders", 10).unwrap();
        assert!(fresh_q && fresh_l);
        assert!(q.supports_ops());
        assert!(!l.supports_ops());
        let (q2, fresh2) = map.get_or_create(Personality::TaskQueue, "orders", 0).unwrap();
        assert!(!fresh2);
        assert!(Arc::ptr_eq(&q, &q2));

        // `get` takes a borrowed name and stays inside one namespace.
        let name = String::from("orders");
        assert!(Arc::ptr_eq(&map.get(Personality::TaskQueue, name.as_str()).unwrap(), &q));
        assert!(Arc::ptr_eq(&map.get(Personality::RateLimiter, &name[..]).unwrap(), &l));
        assert!(map.get(Personality::ObjectPool, "orders").is_none());
        assert!(map.get(Personality::TaskQueue, "order").is_none());
        assert_eq!(map.all().len(), 2);
    }

    #[test]
    fn queue_tenant_round_trips_values() {
        let map = map();
        let (t, _) = map.get_or_create(Personality::TaskQueue, "q", 0).unwrap();
        let mut h = t.ops_handle(7);
        for v in 0..100 {
            h.produce(v);
        }
        let mut got = 0;
        while h.consume().is_some() {
            got += 1;
        }
        assert_eq!(got, 100);
    }

    #[test]
    fn limiter_throttles_past_its_limit_and_resets() {
        let map = map();
        let (t, _) = map.get_or_create(Personality::RateLimiter, "api", 5).unwrap();
        let mut h = t.ops_handle(3);
        for _ in 0..4 {
            h.produce(1);
        }
        match t.limiter_decision().unwrap() {
            Response::Decision { allowed, observed, limit } => {
                assert!(allowed);
                assert_eq!(observed, 4);
                assert_eq!(limit, 5);
            }
            other => panic!("unexpected: {other:?}"),
        }
        for _ in 0..10 {
            h.produce(1);
        }
        match t.limiter_decision().unwrap() {
            Response::Decision { allowed, observed, .. } => {
                assert!(!allowed);
                assert_eq!(observed, 14);
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert!(t.limiter_reset());
        match t.limiter_decision().unwrap() {
            Response::Decision { allowed, observed, .. } => {
                assert!(allowed);
                assert_eq!(observed, 0);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let map = TenantMap::new(TenantConfig { max_tenants: 1, ..TenantConfig::default() }, None);
        map.get_or_create(Personality::TaskQueue, "a", 0).unwrap();
        let err = map.get_or_create(Personality::TaskQueue, "b", 0).unwrap_err();
        assert!(matches!(err, Response::Error { code: ErrorCode::TenantCapacity, .. }));
        // The cap counts every namespace, and re-getting a live tenant
        // is not a creation.
        let err = map.get_or_create(Personality::RateLimiter, "a", 1).unwrap_err();
        assert!(matches!(err, Response::Error { code: ErrorCode::TenantCapacity, .. }));
        assert!(!map.get_or_create(Personality::TaskQueue, "a", 0).unwrap().1);
    }

    #[test]
    fn stats_report_the_live_window() {
        let map = map();
        let (t, _) = map.get_or_create(Personality::ObjectPool, "conns", 0).unwrap();
        let mut h = t.ops_handle(1);
        for v in 0..50 {
            h.produce(v);
        }
        match t.stats() {
            Response::Stats { width, ops, .. } => {
                assert!(width >= 1);
                assert!(ops >= 50);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
}
