//! Multi-tenant serving: one router owning many named [`ServeCore`]s.
//!
//! REPT's design point is many logical estimators sharing one pass over
//! the stream; the serving analogue is many *tenants* — independent
//! estimator instances with their own configuration, engine, seed and
//! checkpoint lineage — fed from one ingest tier. [`TenantRouter`] owns
//! N named [`ServeCore`] instances and routes protocol traffic to them:
//!
//! * **Standalone tenants** carry their own [`ReptConfig`]/engine
//!   (overriding the router's base configuration field by field).
//! * **Interval tenants** derive their hash seed from the base seed
//!   through [`IntervalEstimator::config_for`], so per-window estimates
//!   (the paper's §II router-monitoring scenario) are *just tenants*:
//!   create `interval=0`, `interval=1`, … tenants and feed each window
//!   to its tenant — estimates stay independent across windows exactly
//!   as the batch interval driver guarantees.
//! * **Per-tenant crash safety** — with a
//!   [`RouterConfig::root_dir`] configured, every tenant checkpoints
//!   into its own directory (`<root>/<tenant>/serve.rpck`, rotation via
//!   [`ServeConfig::checkpoint_keep`] producing position-stamped
//!   siblings), a small `tenant.meta` file records the tenant's
//!   configuration, and [`TenantRouter::start`] resumes **all** tenants
//!   found under the root — a router-wide kill/restart cycle is
//!   bit-identical per tenant to an uninterrupted run (proptested).
//! * **Cross-tenant queries** — [`TenantRouter::aggregate_stats`] and
//!   [`TenantRouter::merged_top_k`] serve the `STATS *` / `TOPK k *`
//!   protocol forms without disturbing any tenant's ingest thread.
//!
//! The `default` tenant always exists (created from the base
//! configuration at startup) and is what v1 protocol clients — which
//! never send `USE` — talk to; it cannot be dropped.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rept_core::config::{EtaMode, MAX_PROCESSORS};
use rept_core::interval::IntervalEstimator;
use rept_core::resume::{durable_write_rename, ResumableRun, SnapshotError};
use rept_core::{Engine, ReptConfig, ReptEstimate};
use rept_graph::edge::{Edge, NodeId};

use crate::core::{IngestError, QuotaPolicy, ServeConfig, ServeCore};
use crate::metrics::TenantScrape;
use crate::protocol::{validate_tenant_name, Scope, TenantOptions, DEFAULT_TENANT};
use crate::snapshot::merge_top_k;

/// File name of a tenant's primary checkpoint inside its directory.
const TENANT_CHECKPOINT: &str = "serve.rpck";
/// File name of the per-tenant configuration manifest.
const TENANT_META: &str = "tenant.meta";

/// Configuration of a [`TenantRouter`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The base serving configuration: used verbatim for the `default`
    /// tenant and as the template other tenants override field by
    /// field. Its `checkpoint_path` applies to the `default` tenant
    /// only (when unset and a root directory is configured, `default`
    /// checkpoints under the root like everyone else).
    pub base: ServeConfig,
    /// Root directory for per-tenant checkpoints and manifests
    /// (`<root>/<tenant>/`). `None` disables tenant persistence:
    /// tenants can still be created but vanish with the process.
    pub root_dir: Option<PathBuf>,
}

impl RouterConfig {
    /// A router with no tenant persistence.
    pub fn new(base: ServeConfig) -> Self {
        Self {
            base,
            root_dir: None,
        }
    }

    /// Enables per-tenant checkpoint directories under `root`.
    pub fn with_root_dir(mut self, root: PathBuf) -> Self {
        self.root_dir = Some(root);
        self
    }
}

/// Statistics aggregated across every tenant — the `STATS *` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterStats {
    /// Number of live tenants.
    pub tenants: usize,
    /// Σ stream positions.
    pub position: u64,
    /// Σ stored edges.
    pub stored_edges: usize,
    /// Σ approximate estimator heap bytes.
    pub bytes: usize,
    /// Σ per-tenant checkpoint counts.
    pub checkpoints: u64,
    /// Σ tracked (non-zero local) nodes.
    pub tracked_nodes: usize,
    /// Σ write-ahead-journal bytes on disk (0 when no tenant journals).
    pub journal_bytes: u64,
    /// Σ dead-letter counts across tenants.
    pub dlq: u64,
}

/// One live tenant: its core plus the resolved bookkeeping needed to
/// persist and describe it.
#[derive(Debug)]
struct TenantEntry {
    core: Arc<ServeCore>,
    /// `Some(i)` when the tenant's seed was interval-derived.
    interval: Option<u64>,
}

/// A router owning N named serving cores. See the module docs.
#[derive(Debug)]
pub struct TenantRouter {
    cfg: RouterConfig,
    tenants: Mutex<BTreeMap<String, TenantEntry>>,
}

impl TenantRouter {
    /// Starts the router: resumes every tenant found under the root
    /// directory (directories with a `tenant.meta` manifest or a
    /// readable checkpoint), then ensures the `default` tenant exists.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a tenant's checkpoint cannot be decoded
    /// or disagrees with its recorded configuration.
    pub fn start(cfg: RouterConfig) -> Result<Self, SnapshotError> {
        let router = Self {
            cfg,
            tenants: Mutex::new(BTreeMap::new()),
        };
        // Resume whatever the root directory holds.
        if let Some(root) = router.cfg.root_dir.clone() {
            if root.is_dir() {
                // Sweep retired directories first: `drop_tenant` renames
                // a tenant dir to `.trash-…` before deleting it, and a
                // crash in that window leaves the trash behind forever
                // (the resume scan skips dot-names). Best-effort — a
                // sweep failure must not block startup.
                for entry in std::fs::read_dir(&root)
                    .map_err(|e| SnapshotError::Io(e.to_string()))?
                    .filter_map(|e| e.ok())
                {
                    let name = entry.file_name();
                    let Some(name) = name.to_str() else { continue };
                    if name.starts_with(".trash-") && entry.path().is_dir() {
                        let _ = std::fs::remove_dir_all(entry.path());
                    }
                }
                let mut names: Vec<String> = std::fs::read_dir(&root)
                    .map_err(|e| SnapshotError::Io(e.to_string()))?
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().is_dir())
                    .filter_map(|e| e.file_name().to_str().map(str::to_owned))
                    .filter(|n| validate_tenant_name(n).is_ok())
                    .collect();
                names.sort();
                for name in names {
                    let dir = root.join(&name);
                    let Some(meta) = read_tenant_manifest(&dir)? else {
                        continue; // unrelated directory: no manifest, no checkpoint
                    };
                    let interval = meta.interval;
                    let serve = router.tenant_serve_config(
                        &name,
                        meta.rept,
                        meta.engine,
                        meta.memory_budget,
                        meta.quota,
                    );
                    let core = match ServeCore::start(serve) {
                        Ok(core) => core,
                        // A manifest torn mid-value can still *parse* —
                        // e.g. a `memory_budget=1048576` tail cut down
                        // to `memory_budget=1048` — and then contradict
                        // the checkpoint it resumes. The checkpoint file
                        // is replaced atomically (`durable_write_rename`),
                        // so its header is whole whenever the file
                        // exists: trust it and retry under its config.
                        Err(e) => {
                            let ckpt = dir.join(TENANT_CHECKPOINT);
                            if !ckpt.is_file() {
                                return Err(e);
                            }
                            eprintln!(
                                "rept-serve: tenant {name:?} manifest config rejected \
                                 ({e}); retrying from the checkpoint header"
                            );
                            let run = ResumableRun::from_checkpoint_file(&ckpt)?;
                            // A reservoir checkpoint implies the shed
                            // policy — the only one that runs reservoirs.
                            let serve = router.tenant_serve_config(
                                &name,
                                *run.config(),
                                run.engine(),
                                run.memory_budget(),
                                QuotaPolicy::Shed,
                            );
                            drop(run); // `start` re-reads the checkpoint itself
                            ServeCore::start(serve)?
                        }
                    };
                    router.map().insert(
                        name,
                        TenantEntry {
                            core: Arc::new(core),
                            interval,
                        },
                    );
                }
            }
        }
        // The default tenant always exists; when it was not resumed
        // above, create it from the base configuration.
        if !router.contains(DEFAULT_TENANT) {
            let mut serve = router.cfg.base.clone();
            if serve.checkpoint_path.is_none() {
                if let Some(root) = &router.cfg.root_dir {
                    serve.checkpoint_path = Some(root.join(DEFAULT_TENANT).join(TENANT_CHECKPOINT));
                }
            }
            router.install(DEFAULT_TENANT.to_string(), serve, None)?;
        }
        Ok(router)
    }

    /// The router configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The tenant map. Every critical section leaves the map whole (one
    /// insert or one remove, never a half-built entry), so a guard
    /// poisoned by a panicking holder is recovered rather than turning
    /// every later request into a panic.
    fn map(&self) -> MutexGuard<'_, BTreeMap<String, TenantEntry>> {
        self.tenants.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The resolved [`ServeConfig`] a tenant named `name` with estimator
    /// config `rept` and engine `engine` runs under: router base
    /// settings, per-tenant checkpoint path when a root is configured.
    fn tenant_serve_config(
        &self,
        name: &str,
        rept: ReptConfig,
        engine: Engine,
        memory_budget: Option<u64>,
        quota: QuotaPolicy,
    ) -> ServeConfig {
        let mut serve = self.cfg.base.clone();
        serve.rept = rept;
        serve.engine = engine;
        serve.memory_budget = memory_budget;
        serve.quota = quota;
        serve.checkpoint_path = self
            .cfg
            .root_dir
            .as_ref()
            .map(|root| root.join(name).join(TENANT_CHECKPOINT));
        if name == DEFAULT_TENANT && self.cfg.base.checkpoint_path.is_some() {
            serve.checkpoint_path = self.cfg.base.checkpoint_path.clone();
        }
        serve
    }

    /// Resolves `TENANT CREATE` options against the base configuration:
    /// explicit overrides win, `interval=i` derives the seed from the
    /// (possibly overridden) base via [`IntervalEstimator`].
    ///
    /// # Errors
    ///
    /// A description when the options are invalid (e.g. `m < 2`).
    pub fn resolve_options(&self, opts: &TenantOptions) -> Result<(ReptConfig, Engine), String> {
        self.resolve_options_full(opts).map(|(r, e, _, _)| (r, e))
    }

    /// [`Self::resolve_options`] including the overload-resilience
    /// options: the memory budget (bytes) and the quota policy applied
    /// when the budget is reached.
    ///
    /// # Errors
    ///
    /// A description when the options are invalid — including a
    /// `quota=` policy without the `memory_budget=` it would enforce.
    pub fn resolve_options_full(
        &self,
        opts: &TenantOptions,
    ) -> Result<(ReptConfig, Engine, Option<u64>, QuotaPolicy), String> {
        if opts.quota.is_some() && opts.memory_budget.is_none() {
            return Err("quota policy requires a memory_budget to enforce".into());
        }
        // Enforced here, not only in the wire parser: `TenantOptions`
        // is public API, and silently ignoring `seed` next to
        // `interval` would hand the caller a tenant on the wrong hash.
        if opts.seed.is_some() && opts.interval.is_some() {
            return Err(
                "seed and interval are mutually exclusive (interval derives the seed)".into(),
            );
        }
        let base = self.cfg.base.rept;
        let m = opts.m.unwrap_or(base.m);
        let c = opts.c.unwrap_or(base.c);
        if m < 2 {
            return Err("m must be ≥ 2".into());
        }
        if c < 1 {
            return Err("c must be ≥ 1".into());
        }
        // Checked before anything is sized by `c`: the layout holds a
        // hash group per `m` processors.
        if c > MAX_PROCESSORS {
            return Err(format!("c must be ≤ {MAX_PROCESSORS}"));
        }
        let mut rept = ReptConfig { m, c, ..base };
        if let Some(seed) = opts.seed {
            rept.seed = seed;
        }
        if let Some(i) = opts.interval {
            // The interval sequence is derived from the *base* seed, so
            // an interval tenant is exactly the batch driver's window i.
            rept = IntervalEstimator::new(rept.with_seed(base.seed)).config_for(i);
        }
        Ok((
            rept,
            opts.engine.unwrap_or(self.cfg.base.engine),
            opts.memory_budget,
            opts.quota.unwrap_or_default(),
        ))
    }

    /// Creates a tenant from protocol options (see
    /// [`Self::resolve_options`]).
    ///
    /// # Errors
    ///
    /// A description: invalid name, duplicate tenant, invalid options,
    /// or a checkpoint/manifest failure.
    pub fn create(&self, name: &str, opts: &TenantOptions) -> Result<(), String> {
        validate_tenant_name(name)?;
        let (rept, engine, budget, quota) = self.resolve_options_full(opts)?;
        let serve = self.tenant_serve_config(name, rept, engine, budget, quota);
        self.install(name.to_string(), serve, opts.interval)
            .map_err(|e| match e {
                SnapshotError::Invalid("tenant already exists") => {
                    format!("tenant {name:?} already exists")
                }
                other => format!("cannot start tenant {name:?}: {other}"),
            })
    }

    /// Starts a core for `name` under `serve`, writes its manifest, and
    /// inserts it into the map. The whole sequence runs under the
    /// tenant lock: the duplicate check must precede the manifest
    /// write, or a racing creation that loses the insert could leave
    /// *its* manifest (different seed/engine) on disk next to the
    /// winner's checkpoint, poisoning the next restart.
    ///
    /// Directory side effects happen only in the tenant's *managed*
    /// directory (`<root>/<name>/`): a `default` tenant running on a
    /// caller-supplied `checkpoint_path` (the pre-tenant
    /// `Server::start` shape) gets no manifest and no directory
    /// creation — byte-for-byte the old on-disk behaviour.
    fn install(
        &self,
        name: String,
        serve: ServeConfig,
        interval: Option<u64>,
    ) -> Result<(), SnapshotError> {
        let mut tenants = self.map();
        if tenants.contains_key(&name) {
            return Err(SnapshotError::Invalid("tenant already exists"));
        }
        let managed_dir = self.cfg.root_dir.as_ref().and_then(|root| {
            let dir = root.join(&name);
            (serve.checkpoint_path.as_deref().and_then(Path::parent) == Some(dir.as_path()))
                .then_some(dir)
        });
        if let Some(dir) = &managed_dir {
            // A fresh create starts empty: clear any leftover state a
            // failed earlier removal left behind, or `ServeCore::start`
            // below would silently resume it (compatible config) or
            // refuse to start (mismatched config).
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
            write_tenant_manifest(dir, &serve, interval)
                .map_err(|e| SnapshotError::Io(e.to_string()))?;
        }
        // Held across the core start: creation is rare and (with the
        // managed directory wiped above) checkpoint-decode-free, and
        // exclusivity here is what makes the check-then-write atomic.
        let core = ServeCore::start(serve).inspect_err(|_| {
            // A refused tenant leaves no manifest behind: the next router
            // start would resume it and be refused the same way.
            if let Some(dir) = &managed_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        })?;
        tenants.insert(
            name,
            TenantEntry {
                core: Arc::new(core),
                interval,
            },
        );
        Ok(())
    }

    /// Shuts a tenant down cleanly and removes it, deleting its
    /// checkpoint directory (otherwise a restart would resurrect it).
    /// The `default` tenant cannot be dropped — v1 clients depend on it.
    ///
    /// # Errors
    ///
    /// A description when the tenant is unknown or is `default`.
    pub fn drop_tenant(&self, name: &str) -> Result<(), String> {
        if name == DEFAULT_TENANT {
            return Err("the default tenant cannot be dropped".into());
        }
        let (entry, trash) = {
            let mut tenants = self.map();
            let entry = tenants
                .remove(name)
                .ok_or_else(|| format!("unknown tenant {name:?}"))?;
            // Retire the checkpoint directory while still holding the
            // lock — a racing `TENANT CREATE` of the same name (blocked
            // on this lock in `install`) must not collide with it — but
            // only by *renaming* it aside: a rename is fast, whereas
            // deleting a directory of rotated checkpoints under the
            // router-wide lock would stall every tenant's traffic.
            // Checkpoints of the dropped core are disabled first, so a
            // wedged Arc that outlives the drain below cannot write a
            // stale-config blob into a recreated same-name directory.
            entry.core.disable_checkpoints();
            let mut trash = Ok(None);
            if let Some(dir) = entry
                .core
                .config()
                .checkpoint_path
                .as_ref()
                .and_then(|p| p.parent())
                .filter(|dir| dir.exists())
            {
                static TRASH_SEQ: AtomicU64 = AtomicU64::new(0);
                let seq = TRASH_SEQ.fetch_add(1, Ordering::Relaxed);
                // Leading '.' keeps the name invalid as a tenant, so a
                // crash between rename and delete cannot make the
                // startup scan resurrect it.
                let retired = dir.with_file_name(format!(".trash-{name}-{seq}"));
                trash = match std::fs::rename(dir, &retired) {
                    Ok(()) => Ok(Some(retired)),
                    // Surfaced to the caller: a surviving directory
                    // would resurrect the tenant at the next restart.
                    Err(e) => Err(format!(
                        "tenant {name:?} dropped, but its checkpoint directory {dir:?} \
                         could not be retired: {e}"
                    )),
                };
            }
            (entry, trash)
        };
        // The slow work happens outside the lock.
        let removed = match trash {
            Ok(Some(retired)) => std::fs::remove_dir_all(&retired).map_err(|e| {
                format!(
                    "tenant {name:?} dropped, but its retired checkpoint directory \
                     {retired:?} could not be removed: {e}"
                )
            }),
            Ok(None) => Ok(()),
            Err(msg) => Err(msg),
        };
        // Queries hold the Arc only for the duration of a request, so a
        // short wait almost always gets exclusive ownership for a clean
        // shutdown; a wedged holder degrades to Drop-driven shutdown.
        let mut core = entry.core;
        for _ in 0..2000 {
            match Arc::try_unwrap(core) {
                Ok(owned) => {
                    owned.shutdown();
                    return removed;
                }
                Err(still_shared) => {
                    core = still_shared;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
        }
        drop(core);
        removed
    }

    /// The named tenant's core, if it exists.
    pub fn tenant(&self, name: &str) -> Option<Arc<ServeCore>> {
        self.map().get(name).map(|e| Arc::clone(&e.core))
    }

    /// Whether a tenant exists.
    pub fn contains(&self, name: &str) -> bool {
        self.map().contains_key(name)
    }

    /// Number of live tenants.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when the router has no tenants (only before [`Self::start`]
    /// finishes — `default` always exists afterwards).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tenant names in sorted order, with each tenant's interval index
    /// when it was interval-derived.
    pub fn names(&self) -> Vec<(String, Option<u64>)> {
        self.map()
            .iter()
            .map(|(n, e)| (n.clone(), e.interval))
            .collect()
    }

    /// One consistent listing per tenant — `(name, interval index,
    /// stream position)` from a single lock acquisition, so a tenant
    /// dropped concurrently is either absent or fully present, never a
    /// fabricated entry. Backs the `TENANT LIST` reply.
    pub fn list(&self) -> Vec<(String, Option<u64>, u64)> {
        let cores: Vec<(String, Option<u64>, Arc<ServeCore>)> = self
            .map()
            .iter()
            .map(|(n, e)| (n.clone(), e.interval, Arc::clone(&e.core)))
            .collect();
        // Positions read outside the lock: they only touch published
        // snapshots.
        cores
            .into_iter()
            .map(|(n, interval, core)| {
                let position = core.position();
                (n, interval, position)
            })
            .collect()
    }

    /// Snapshot of every tenant's core, sorted by name.
    fn cores(&self) -> Vec<(String, Arc<ServeCore>)> {
        self.map()
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(&e.core)))
            .collect()
    }

    /// Queues `edges` to every tenant selected by `scope`; returns the
    /// number of tenants fed. [`Scope::Current`] is resolved by the
    /// caller (the server tracks each connection's tenant) and is
    /// rejected here.
    ///
    /// # Errors
    ///
    /// A description when a named tenant is unknown (checked before any
    /// edge is queued, so a failed fan-out feeds no one).
    pub fn ingest(&self, scope: &Scope, edges: Vec<Edge>) -> Result<usize, String> {
        let targets: Vec<(String, Arc<ServeCore>)> = match scope {
            Scope::Current => return Err("unresolved Current scope".into()),
            Scope::All => self.cores(),
            Scope::Named(names) => {
                let tenants = self.map();
                let mut targets = Vec::with_capacity(names.len());
                for name in names {
                    let entry = tenants
                        .get(name)
                        .ok_or_else(|| format!("unknown tenant {name:?}"))?;
                    targets.push((name.clone(), Arc::clone(&entry.core)));
                }
                targets
            }
        };
        let fed = targets.len();
        // A refused batch (journal failure, quota) surfaces as an
        // error, but the fan-out still offers the batch to every target
        // first — durability and quotas are per tenant, and starving
        // healthy tenants because one tenant's disk failed would turn a
        // partial outage into a total one. *Every* failing tenant is
        // reported, not just the first: the caller must know exactly
        // which tenants to replay to.
        let mut failures: Vec<(String, IngestError)> = Vec::new();
        let mut targets = targets.into_iter();
        if let Some((last_name, last)) = targets.next_back() {
            for (name, core) in targets {
                if let Err(e) = core.ingest(edges.clone()) {
                    failures.push((name, e));
                }
            }
            // The last tenant takes the Vec itself.
            if let Err(e) = last.ingest(edges) {
                failures.push((last_name, e));
            }
        }
        if failures.is_empty() {
            Ok(fed)
        } else {
            Err(failures
                .iter()
                .map(|(name, e)| format!("tenant {name:?}: {e}"))
                .collect::<Vec<_>>()
                .join("; "))
        }
    }

    /// Barrier on every tenant: returns `(name, position)` pairs.
    pub fn flush_all(&self) -> Vec<(String, u64)> {
        self.cores()
            .into_iter()
            .map(|(n, c)| {
                let pos = c.flush();
                (n, pos)
            })
            .collect()
    }

    /// Statistics aggregated across all tenants (the `STATS *` path).
    pub fn aggregate_stats(&self) -> RouterStats {
        let mut stats = RouterStats {
            tenants: 0,
            position: 0,
            stored_edges: 0,
            bytes: 0,
            checkpoints: 0,
            tracked_nodes: 0,
            journal_bytes: 0,
            dlq: 0,
        };
        for (_, core) in self.cores() {
            let snap = core.snapshot();
            let live = core.live_stats();
            stats.tenants += 1;
            stats.position += snap.position;
            stats.stored_edges += snap.stored_edges;
            stats.bytes += snap.total_bytes;
            stats.checkpoints += snap.checkpoints;
            stats.tracked_nodes += snap.locals.len();
            // Gauge-backed, not snapshot state: an idle tenant's journal
            // growth shows up without waiting for a publication point.
            stats.journal_bytes += live.journal_bytes;
            stats.dlq += live.dlq;
        }
        stats
    }

    /// One scrape unit per tenant (name, live health, shared metric
    /// set), sorted by name — the `METRICS *` payload, and the surface
    /// a shard coordinator would poll.
    pub fn scrape(&self) -> Vec<TenantScrape> {
        self.cores()
            .into_iter()
            .map(|(tenant, core)| TenantScrape {
                engine: core.config().engine.name(),
                health: core.health(),
                metrics: Arc::clone(core.metrics()),
                tenant,
            })
            .collect()
    }

    /// The `k` largest local estimates across all tenants, merged
    /// descending and labelled with their tenant (the `TOPK k *` path).
    pub fn merged_top_k(&self, k: usize) -> Vec<(String, NodeId, f64)> {
        let snaps: Vec<_> = self
            .cores()
            .into_iter()
            .map(|(n, c)| (n, c.snapshot()))
            .collect();
        merge_top_k(snaps.iter().map(|(n, s)| (n.as_str(), &**s)), k)
    }

    /// Checkpoints every tenant that has a checkpoint path; returns
    /// `(name, position)` pairs.
    ///
    /// # Errors
    ///
    /// The first failing tenant's description (earlier tenants stay
    /// checkpointed).
    pub fn checkpoint_all(&self) -> Result<Vec<(String, u64)>, String> {
        self.cores()
            .into_iter()
            .map(|(n, c)| {
                let pos = c.checkpoint().map_err(|e| format!("tenant {n:?}: {e}"))?;
                Ok((n, pos))
            })
            .collect()
    }

    /// Stops every tenant (final checkpoints where configured) and
    /// returns each tenant's final estimate, sorted by name.
    ///
    /// Drain semantics: finalizing a tenant needs exclusive ownership
    /// of its core, so this waits (up to ~5 s per tenant) for
    /// outstanding [`Self::tenant`] handles to drop. A handle held
    /// past that is treated as wedged: the tenant still shuts down —
    /// Drop-driven, final checkpoint included — when the stray handle
    /// dies, but its estimate is **omitted** from the result. Release
    /// borrowed cores before shutting the router down (the TCP server
    /// does: handler threads are joined first).
    pub fn shutdown(self) -> Vec<(String, ReptEstimate)> {
        let tenants = self
            .tenants
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        tenants
            .into_iter()
            .filter_map(|(name, entry)| {
                let mut core = entry.core;
                // Connection handlers are gone by the time the router
                // shuts down, but be robust to a stray Arc anyway.
                for _ in 0..5000 {
                    match Arc::try_unwrap(core) {
                        Ok(owned) => return Some((name, owned.shutdown())),
                        Err(still_shared) => {
                            core = still_shared;
                            std::thread::sleep(std::time::Duration::from_millis(1));
                        }
                    }
                }
                drop(core); // wedged: Drop-driven shutdown, no estimate
                None
            })
            .collect()
    }
}

/// A tenant directory's recorded configuration, as recovered at router
/// startup from `tenant.meta` (or the checkpoint header fallback).
struct TenantManifest {
    rept: ReptConfig,
    engine: Engine,
    interval: Option<u64>,
    memory_budget: Option<u64>,
    quota: QuotaPolicy,
}

/// Writes `<dir>/tenant.meta`: a line-oriented `key=value` manifest of
/// the tenant's estimator configuration, engine, interval index and
/// overload options — enough to reconstruct its [`ServeConfig`] at
/// router startup even when no checkpoint was ever written (e.g. kill
/// before the first checkpoint interval).
fn write_tenant_manifest(
    dir: &Path,
    serve: &ServeConfig,
    interval: Option<u64>,
) -> std::io::Result<()> {
    let rept = &serve.rept;
    let mut meta = String::new();
    meta.push_str(&format!("m={}\n", rept.m));
    meta.push_str(&format!("c={}\n", rept.c));
    meta.push_str(&format!("seed={}\n", rept.seed));
    meta.push_str(&format!("track_locals={}\n", rept.track_locals as u8));
    meta.push_str(&format!("track_eta={}\n", rept.track_eta as u8));
    meta.push_str(&format!(
        "eta_mode={}\n",
        match rept.eta_mode {
            EtaMode::PaperInit => "paper",
            EtaMode::StrictNonLast => "strict",
        }
    ));
    meta.push_str(&format!("engine={}\n", serve.engine.name()));
    if let Some(i) = interval {
        meta.push_str(&format!("interval={i}\n"));
    }
    if let Some(b) = serve.memory_budget {
        meta.push_str(&format!("memory_budget={b}\n"));
        meta.push_str(&format!("quota={}\n", serve.quota.name()));
    }
    // Durable write-then-rename, exactly like the checkpoints: without
    // the fsync a power loss can persist the rename over unsynced data,
    // leaving a *renamed* torn manifest that shadows nothing good.
    durable_write_rename(&dir.join(TENANT_META), meta.as_bytes())
}

/// Reads a tenant directory's configuration: the `tenant.meta` manifest
/// when present, else recovered from the checkpoint header. `Ok(None)`
/// when the directory holds neither (not a tenant directory).
fn read_tenant_manifest(dir: &Path) -> Result<Option<TenantManifest>, SnapshotError> {
    let meta_path = dir.join(TENANT_META);
    let parsed = match std::fs::read_to_string(&meta_path) {
        Ok(text) => match parse_tenant_manifest(&text) {
            Ok(parsed) => Some(parsed),
            // A manifest that exists but doesn't parse (truncated by a
            // crash on a pre-fsync filesystem, hand-edited, …) is
            // *damaged*, not absent — don't fail the whole router
            // startup over it when the checkpoint can answer instead.
            Err(e) => {
                if dir.join(TENANT_CHECKPOINT).is_file() {
                    eprintln!(
                        "rept-serve: unreadable manifest {} ({e:?}); \
                         falling back to the checkpoint header",
                        meta_path.display()
                    );
                    None
                } else {
                    return Err(e);
                }
            }
        },
        Err(_) => None,
    };
    if let Some(parsed) = parsed {
        return Ok(Some(parsed));
    }
    // No usable manifest (pre-manifest directory, a torn write that
    // never renamed, or a damaged one with a checkpoint beside it):
    // fall back to the checkpoint header, which carries the full config
    // and engine. This decodes the whole blob and the subsequent
    // `ServeCore::start` decodes it again — accepted: the RPCK codec
    // exposes no header-only peek, and this path only runs once per
    // damaged directory at startup.
    let ckpt = dir.join(TENANT_CHECKPOINT);
    if ckpt.is_file() {
        let run = ResumableRun::from_checkpoint_file(&ckpt)?;
        return Ok(Some(TenantManifest {
            rept: *run.config(),
            engine: run.engine(),
            interval: None,
            // A reservoir checkpoint implies the shed policy — the
            // only one that runs reservoirs.
            memory_budget: run.memory_budget(),
            quota: QuotaPolicy::Shed,
        }));
    }
    Ok(None)
}

/// Parses the `key=value` manifest body written by
/// [`write_tenant_manifest`].
fn parse_tenant_manifest(text: &str) -> Result<TenantManifest, SnapshotError> {
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        if let Some((k, v)) = line.split_once('=') {
            fields.insert(k.trim(), v.trim());
        }
    }
    let num = |key: &str| -> Result<u64, SnapshotError> {
        fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or(SnapshotError::Invalid("tenant manifest field"))
    };
    let m = num("m")?;
    let c = num("c")?;
    if m < 2 || !(1..=MAX_PROCESSORS).contains(&c) {
        return Err(SnapshotError::Invalid("tenant manifest layout"));
    }
    let flag = |key: &str| match fields.get(key).copied() {
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        _ => Err(SnapshotError::Invalid("tenant manifest flag")),
    };
    let rept = ReptConfig::new(m, c)
        .with_seed(num("seed")?)
        .with_locals(flag("track_locals")?)
        .with_eta(flag("track_eta")?)
        .with_eta_mode(match fields.get("eta_mode").copied() {
            Some("paper") => EtaMode::PaperInit,
            Some("strict") => EtaMode::StrictNonLast,
            _ => return Err(SnapshotError::Invalid("tenant manifest eta_mode")),
        });
    let engine = fields
        .get("engine")
        .and_then(|n| Engine::from_name(n))
        .ok_or(SnapshotError::Invalid("tenant manifest engine"))?;
    let interval = fields
        .contains_key("interval")
        .then(|| num("interval"))
        .transpose()?;
    let memory_budget = match fields.get("memory_budget") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| SnapshotError::Invalid("tenant manifest memory_budget"))?,
        ),
        None => None,
    };
    let quota = match fields.get("quota") {
        Some(v) => QuotaPolicy::from_name(v)
            .ok_or(SnapshotError::Invalid("tenant manifest quota policy"))?,
        None => QuotaPolicy::default(),
    };
    Ok(TenantManifest {
        rept,
        engine,
        interval,
        memory_budget,
        quota,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_core::Rept;
    use rept_gen::{barabasi_albert, GeneratorConfig};

    fn stream() -> Vec<Edge> {
        barabasi_albert(&GeneratorConfig::new(300, 5), 4)
    }

    fn base_serve() -> ServeConfig {
        ServeConfig::new(ReptConfig::new(3, 5).with_seed(11).with_eta(true)).with_snapshot_every(64)
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rept-tenant-{tag}-{}", std::process::id()))
    }

    #[test]
    fn default_tenant_always_exists() {
        let router = TenantRouter::start(RouterConfig::new(base_serve())).expect("start");
        assert!(router.contains(DEFAULT_TENANT));
        assert_eq!(router.len(), 1);
        assert!(!router.is_empty());
        for (_, est) in router.shutdown() {
            assert!(est.global >= 0.0);
        }
    }

    #[test]
    fn tenants_match_standalone_cores() {
        let stream = stream();
        let router = TenantRouter::start(RouterConfig::new(base_serve())).expect("start");
        router
            .create(
                "alpha",
                &TenantOptions {
                    engine: Some(Engine::PerWorker),
                    seed: Some(99),
                    ..TenantOptions::default()
                },
            )
            .expect("create alpha");
        router
            .create(
                "win3",
                &TenantOptions {
                    interval: Some(3),
                    ..TenantOptions::default()
                },
            )
            .expect("create win3");
        assert_eq!(router.len(), 3);

        for chunk in stream.chunks(71) {
            router.ingest(&Scope::All, chunk.to_vec()).expect("ingest");
        }
        let positions = router.flush_all();
        assert!(positions.iter().all(|(_, p)| *p == stream.len() as u64));

        // Each tenant is bit-identical to a standalone estimator run
        // under the tenant's resolved config.
        let base = base_serve().rept;
        let alpha_cfg = ReptConfig { seed: 99, ..base };
        let alpha_oracle = Rept::new(alpha_cfg).run(Engine::PerWorker, &stream);
        let alpha = router.tenant("alpha").expect("alpha").snapshot();
        assert_eq!(alpha.global, alpha_oracle.global);
        assert_eq!(alpha.locals, alpha_oracle.locals);

        let win_cfg = IntervalEstimator::new(base).config_for(3);
        let win_oracle = Rept::new(win_cfg).run(Engine::PerWorker, &stream);
        let win = router.tenant("win3").expect("win3").snapshot();
        assert_eq!(win.global, win_oracle.global);
        assert_ne!(win_cfg.seed, base.seed, "interval seed is derived");

        // Cross-tenant aggregation covers every tenant.
        let stats = router.aggregate_stats();
        assert_eq!(stats.tenants, 3);
        assert_eq!(stats.position, 3 * stream.len() as u64);
        let merged = router.merged_top_k(10);
        assert!(merged.len() <= 10);
        for pair in merged.windows(2) {
            assert!(pair[0].2 >= pair[1].2, "descending: {merged:?}");
        }

        let finals = router.shutdown();
        assert_eq!(finals.len(), 3);
        let alpha_final = finals.iter().find(|(n, _)| n == "alpha").unwrap();
        assert_eq!(alpha_final.1.global, alpha_oracle.global);
    }

    #[test]
    fn named_scope_feeds_only_named_tenants() {
        let stream = stream();
        let router = TenantRouter::start(RouterConfig::new(base_serve())).expect("start");
        router
            .create("alpha", &TenantOptions::default())
            .expect("create");
        router
            .ingest(&Scope::Named(vec!["alpha".into()]), stream[..50].to_vec())
            .expect("ingest");
        router.flush_all();
        assert_eq!(router.tenant("alpha").unwrap().position(), 50);
        assert_eq!(router.tenant(DEFAULT_TENANT).unwrap().position(), 0);
        // Unknown names fail before feeding anyone.
        let err = router
            .ingest(
                &Scope::Named(vec!["alpha".into(), "ghost".into()]),
                stream[50..60].to_vec(),
            )
            .unwrap_err();
        assert!(err.contains("ghost"), "{err}");
        router.flush_all();
        assert_eq!(router.tenant("alpha").unwrap().position(), 50);
        router.shutdown();
    }

    #[test]
    fn create_validates_and_rejects_duplicates() {
        let router = TenantRouter::start(RouterConfig::new(base_serve())).expect("start");
        assert!(router.create("9bad", &TenantOptions::default()).is_err());
        assert!(router
            .create(DEFAULT_TENANT, &TenantOptions::default())
            .is_err());
        router.create("a", &TenantOptions::default()).expect("ok");
        assert!(router.create("a", &TenantOptions::default()).is_err());
        let err = router
            .create(
                "b",
                &TenantOptions {
                    m: Some(1),
                    ..TenantOptions::default()
                },
            )
            .unwrap_err();
        assert!(err.contains("m must be"), "{err}");
        // In-process callers hit the same seed/interval exclusivity the
        // wire parser enforces — no silent seed override.
        let err = router
            .create(
                "c",
                &TenantOptions {
                    seed: Some(9),
                    interval: Some(2),
                    ..TenantOptions::default()
                },
            )
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        router.shutdown();
    }

    #[test]
    fn drop_tenant_removes_core_and_directory() {
        let root = temp_root("drop");
        std::fs::remove_dir_all(&root).ok();
        let router =
            TenantRouter::start(RouterConfig::new(base_serve()).with_root_dir(root.clone()))
                .expect("start");
        router
            .create("gone", &TenantOptions::default())
            .expect("create");
        assert!(root.join("gone").join(TENANT_META).is_file());
        router.drop_tenant("gone").expect("drop");
        assert!(!router.contains("gone"));
        assert!(!root.join("gone").exists(), "directory removed");
        assert!(router.drop_tenant("gone").is_err(), "already gone");
        assert!(router.drop_tenant(DEFAULT_TENANT).is_err(), "protected");
        router.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_poisoned_tenant_lock_is_recovered() {
        let router = TenantRouter::start(RouterConfig::new(base_serve())).expect("start");
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = router.tenants.lock();
                panic!("a request panics while it holds the tenant lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(router.tenants.is_poisoned());
        assert!(router.tenant(DEFAULT_TENANT).is_some());
        router
            .create("alpha", &TenantOptions::default())
            .expect("create");
        let names: Vec<String> = router.list().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["alpha", DEFAULT_TENANT]);
        router.drop_tenant("alpha").expect("drop");
        assert_eq!(router.list().len(), 1);
        assert_eq!(router.shutdown().len(), 1);
    }

    #[test]
    fn startup_sweeps_leftover_trash_directories() {
        let root = temp_root("trash-sweep");
        std::fs::remove_dir_all(&root).ok();
        // A crash between `drop_tenant`'s rename and its remove_dir_all
        // leaves a retired directory behind; simulate one.
        let trash = root.join(".trash-gone-0");
        std::fs::create_dir_all(trash.join("nested")).expect("mk trash");
        std::fs::write(trash.join("serve.rpck"), b"stale").expect("trash file");
        // A dot-file that is *not* a trash dir must survive the sweep.
        std::fs::write(root.join(".keep"), b"").expect("keep file");

        let router =
            TenantRouter::start(RouterConfig::new(base_serve()).with_root_dir(root.clone()))
                .expect("start");
        assert!(!trash.exists(), "retired directory swept at startup");
        assert!(root.join(".keep").is_file(), "unrelated dot-file kept");
        assert!(!router.contains("gone"), "trash never resurrected");
        router.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn router_stats_aggregate_journal_and_dlq() {
        let root = temp_root("journal-agg");
        std::fs::remove_dir_all(&root).ok();
        let cfg = RouterConfig::new(base_serve().with_journal()).with_root_dir(root.clone());
        let router = TenantRouter::start(cfg).expect("start");
        router
            .create("alpha", &TenantOptions::default())
            .expect("create");
        router
            .ingest(&Scope::All, stream()[..60].to_vec())
            .expect("ingest");
        router.flush_all(); // durability stats refresh at publish points
        router
            .tenant("alpha")
            .unwrap()
            .dead_letter("INGEST bogus", "unparsable");
        let stats = router.aggregate_stats();
        assert_eq!(stats.tenants, 2);
        assert!(stats.journal_bytes > 0, "both tenants journaled");
        assert_eq!(stats.dlq, 1, "alpha's dead letter counted");
        router.checkpoint_all().expect("checkpoint");
        assert_eq!(
            router.aggregate_stats().journal_bytes,
            0,
            "checkpoints truncate every tenant's journal"
        );
        router.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn router_wide_kill_resume_restores_every_tenant() {
        let stream = stream();
        let root = temp_root("resume");
        std::fs::remove_dir_all(&root).ok();
        let cfg = RouterConfig::new(base_serve()).with_root_dir(root.clone());

        let router = TenantRouter::start(cfg.clone()).expect("start");
        router
            .create(
                "pw",
                &TenantOptions {
                    engine: Some(Engine::PerWorker),
                    ..TenantOptions::default()
                },
            )
            .expect("create pw");
        router
            .create(
                "win1",
                &TenantOptions {
                    interval: Some(1),
                    ..TenantOptions::default()
                },
            )
            .expect("create win1");
        let split = stream.len() / 2;
        router
            .ingest(&Scope::All, stream[..split].to_vec())
            .expect("ingest");
        let ckpts = router.checkpoint_all().expect("checkpoint all");
        assert!(ckpts.iter().all(|(_, p)| *p == split as u64));
        drop(router.shutdown()); // clean shutdown ≙ kill after checkpoint

        let resumed = TenantRouter::start(cfg).expect("resume");
        assert_eq!(resumed.len(), 3, "all tenants resurrected");
        let names = resumed.names();
        assert_eq!(
            names.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            vec![DEFAULT_TENANT, "pw", "win1"]
        );
        assert_eq!(
            names.iter().find(|(n, _)| n == "win1").unwrap().1,
            Some(1),
            "interval index survives the restart"
        );
        for (_, core) in resumed.cores() {
            assert_eq!(core.position(), split as u64, "resumed at the checkpoint");
        }
        resumed
            .ingest(&Scope::All, stream[split..].to_vec())
            .expect("replay");
        resumed.flush_all();

        let base = base_serve().rept;
        let default_oracle = Rept::new(base).run(Engine::PerWorker, &stream);
        let snap = resumed.tenant(DEFAULT_TENANT).unwrap().snapshot();
        assert_eq!(snap.global, default_oracle.global);
        assert_eq!(snap.locals, default_oracle.locals);
        let win_cfg = IntervalEstimator::new(base).config_for(1);
        let win_oracle = Rept::new(win_cfg).run(Engine::PerWorker, &stream);
        assert_eq!(
            resumed.tenant("win1").unwrap().snapshot().global,
            win_oracle.global
        );
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_fallback_recovers_from_checkpoint_header() {
        let root = temp_root("meta-fallback");
        std::fs::remove_dir_all(&root).ok();
        let cfg = RouterConfig::new(base_serve()).with_root_dir(root.clone());
        let router = TenantRouter::start(cfg.clone()).expect("start");
        router
            .create(
                "pw",
                &TenantOptions {
                    engine: Some(Engine::PerWorker),
                    seed: Some(5),
                    ..TenantOptions::default()
                },
            )
            .expect("create");
        router
            .tenant("pw")
            .unwrap()
            .ingest(stream()[..40].to_vec())
            .expect("ingest");
        router.checkpoint_all().expect("checkpoint");
        router.shutdown();
        // Simulate a pre-manifest directory.
        std::fs::remove_file(root.join("pw").join(TENANT_META)).expect("remove meta");

        let resumed = TenantRouter::start(cfg).expect("resume");
        {
            // Scoped: `shutdown` drains outstanding tenant handles.
            let core = resumed.tenant("pw").expect("recovered from checkpoint");
            assert_eq!(core.config().engine, Engine::PerWorker);
            assert_eq!(core.config().rept.seed, 5);
            assert_eq!(core.position(), 40);
        }
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }

    /// A manifest decodes to exactly what the writer wrote, and a
    /// damaged value is an error, never another value: an `eta_mode`
    /// other than `paper` or `strict`, an `interval` that is not a
    /// number, a flag other than `0` or `1`. An error sends startup to
    /// the checkpoint header instead of resuming under a wrong config.
    #[test]
    fn damaged_manifest_values_are_errors_not_other_values() {
        let dir = temp_root("meta-values");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        for (mode, locals, interval) in [
            (EtaMode::PaperInit, true, None),
            (EtaMode::StrictNonLast, false, Some(7)),
        ] {
            let rept = ReptConfig::new(4, 9)
                .with_seed(3)
                .with_locals(locals)
                .with_eta(true)
                .with_eta_mode(mode);
            let serve = ServeConfig::new(rept).with_engine(Engine::PerWorker);
            write_tenant_manifest(&dir, &serve, interval).expect("write manifest");
            let text = std::fs::read_to_string(dir.join(TENANT_META)).expect("read manifest");
            let parsed = parse_tenant_manifest(&text).expect("a written manifest parses");
            assert_eq!(parsed.rept, rept);
            assert_eq!(parsed.engine, Engine::PerWorker);
            assert_eq!(parsed.interval, interval);
            let mut damage = vec![
                ("eta_mode", "strixt"),
                ("eta_mode", ""),
                ("track_locals", "7"),
                ("track_eta", "yes"),
            ];
            if interval.is_some() {
                damage.push(("interval", "1x"));
            }
            for (key, bad) in damage {
                let damaged: String = text
                    .lines()
                    .map(|line| match line.split_once('=') {
                        Some((k, _)) if k == key => format!("{k}={bad}\n"),
                        _ => format!("{line}\n"),
                    })
                    .collect();
                assert_ne!(damaged, text, "{key} in {text}");
                assert!(
                    matches!(
                        parse_tenant_manifest(&damaged),
                        Err(SnapshotError::Invalid(_))
                    ),
                    "{key}={bad} must not parse"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
