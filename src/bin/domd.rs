//! `domd` — command-line front end for the DoMD estimation framework,
//! mirroring the SMDII back-end life cycle: generate (or receive) the NMD
//! extracts, train a pipeline artifact, evaluate it, and answer DoMD
//! queries against the live tables.
//!
//! ```text
//! domd generate --out-dir data/ [--seed N] [--avails N] [--rccs N]
//! domd train    --data-dir data/ --out pipeline.domd [--grid-step X]
//! domd evaluate --data-dir data/ --model pipeline.domd
//! domd query    --data-dir data/ --model pipeline.domd --avail N
//!               [--t-star P | --date M/D/YYYY]
//! domd validate  --data-dir data/
//! domd obfuscate --data-dir data/ --out-dir export/ --key N
//! domd optimize  --data-dir data/ [--out pipeline.domd] [--quick true]
//! domd checkpoint --store store/ [--data-dir data/]
//! domd recover    --store store/
//! domd migrate-store --store store/ --data-dir data/
//! domd serve      --data-dir data/ --model pipeline.domd [--store store/]
//!                 [--tenants N] [--workers N] [--queue-capacity N] [--deadline-ms N]
//!                 [--ack-sync B] [--verify-extracts B] [--script FILE]
//! ```
//!
//! `generate` writes `avails.csv` and `rccs.csv`; the other commands read
//! the same two files, so a deployment can swap in real extracts. Commands
//! that ingest extracts accept `--lenient true`: bad rows are quarantined
//! (summarized on stderr) instead of failing the whole run. Every command
//! accepts `--threads N`, and refuses any flag it does not read (exit 2).
//!
//! Every failure maps to a distinct exit code by [`DomdError`] variant,
//! so operator scripts can branch on the failure class:
//!
//! | code | failure class                                |
//! |------|----------------------------------------------|
//! | 2    | usage / configuration (`Config`)             |
//! | 3    | filesystem (`Io`)                            |
//! | 4    | row-level parse (`Parse`)                    |
//! | 5    | header / table shape (`Schema`)              |
//! | 6    | pipeline artifact (`Artifact`)               |
//! | 7    | non-finite value (`NonFinite`)               |
//! | 8    | nothing left to work on (`EmptyDataset`)     |
//! | 9    | storage corruption / unrecoverable (`Corrupt`) |
//! | 10   | admission queue full (`Overloaded`)          |
//! | 11   | deadline budget exhausted (`DeadlineExceeded`) |

use domd::core::{DomdQueryEngine, EvalTable, PipelineConfig, PipelineInputs, TrainedPipeline};
use domd::data::csv as nmd_csv;
use domd::data::{generate, read_dataset_lenient, Dataset, Date, GeneratorConfig};
use domd::DomdError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use domd::cli::Args;

/// One exit code per failure class (documented in the crate header).
fn exit_code(e: &DomdError) -> u8 {
    match e {
        DomdError::Config { .. } => 2,
        DomdError::Io { .. } => 3,
        DomdError::Parse { .. } => 4,
        DomdError::Schema { .. } => 5,
        DomdError::Artifact { .. } => 6,
        DomdError::NonFinite { .. } => 7,
        DomdError::EmptyDataset { .. } => 8,
        DomdError::Corrupt { .. } => 9,
        DomdError::Overloaded { .. } => 10,
        DomdError::DeadlineExceeded { .. } => 11,
    }
}

/// Rejects a grid step outside the domain `TimeGrid` accepts, so a bad
/// `--grid-step` is a clean CLI error instead of a library assert.
fn check_grid_step(x: f64) -> Result<f64, DomdError> {
    if x > 0.0 && x <= 100.0 {
        Ok(x)
    } else {
        Err(DomdError::config(format!("--grid-step must be in (0, 100], got {x}")))
    }
}

fn read_file(path: &Path) -> Result<String, DomdError> {
    std::fs::read_to_string(path)
        .map_err(|e| DomdError::io(format!("reading {}", path.display()), e))
}

/// Loads both extracts from `--data-dir`. With `--lenient true`, bad rows
/// are quarantined and summarized on stderr instead of failing the load;
/// strict mode (the default) fails fast on the first bad row.
fn load_dataset(args: &Args) -> Result<Dataset, DomdError> {
    let dir = Path::new(args.require("data-dir")?);
    let avails = read_file(&dir.join("avails.csv"))?;
    let rccs = read_file(&dir.join("rccs.csv"))?;
    if args.parse_opt("lenient", false)? {
        let (ds, report) = read_dataset_lenient(&avails, &rccs)?;
        if !report.is_empty() {
            eprintln!("{}", report.summary());
        }
        if ds.avails().is_empty() {
            return Err(DomdError::EmptyDataset {
                context: "every avail row was quarantined by lenient ingest".into(),
            });
        }
        Ok(ds)
    } else {
        Ok(nmd_csv::read_dataset(&avails, &rccs)?)
    }
}

fn write_file(path: &Path, text: String) -> Result<(), DomdError> {
    std::fs::write(path, text)
        .map_err(|e| DomdError::io(format!("writing {}", path.display()), e))
}

fn cmd_generate(args: &Args) -> Result<(), DomdError> {
    let out_dir = PathBuf::from(args.require("out-dir")?);
    let config = GeneratorConfig {
        n_avails: args.parse_opt("avails", 200usize)?,
        target_rccs: args.parse_opt("rccs", 52_959usize)?,
        scale: args.parse_opt("scale", 1u32)?,
        seed: args.parse_opt("seed", 0xD0_4Du64)?,
    };
    if config.n_avails == 0 {
        return Err(DomdError::config("--avails must be at least 1"));
    }
    if config.scale == 0 {
        return Err(DomdError::config("--scale must be at least 1"));
    }
    let ds = generate(&config);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| DomdError::io(format!("creating {}", out_dir.display()), e))?;
    write_file(&out_dir.join("avails.csv"), nmd_csv::write_avails(&ds))?;
    write_file(&out_dir.join("rccs.csv"), nmd_csv::write_rccs(&ds))?;
    let st = ds.stats();
    println!("wrote {} avails and {} RCCs to {}", st.n_avails, st.n_rccs, out_dir.display());
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), DomdError> {
    let ds = load_dataset(args)?;
    let out = PathBuf::from(args.require("out")?);
    let grid_step = check_grid_step(args.parse_opt("grid-step", 10.0)?)?;
    let seed: u64 = args.parse_opt("split-seed", 7u64)?;

    let mut config = PipelineConfig::paper_final();
    config.grid_step = grid_step;
    config.validate()?;
    let split = ds.split(seed);
    if split.train.is_empty() {
        return Err(DomdError::EmptyDataset {
            context: "training split is empty (too few closed avails)".into(),
        });
    }
    eprintln!(
        "training on {} avails ({} timeline models, config: {} k={} {} fusion={})...",
        split.train.len(),
        (100.0 / grid_step).ceil() as usize + 1,
        config.selection.name(),
        config.k,
        config.loss.name(),
        config.fusion.name(),
    );
    let inputs = PipelineInputs::build(&ds, grid_step);
    let pipeline = TrainedPipeline::fit(&inputs, &split.train, &config);
    // Checksummed frame + tempfile/rename: a crash mid-write can never
    // clobber the previous good artifact with a torn one.
    domd::core::write_pipeline_file(&out, &pipeline)?;
    println!("saved pipeline artifact to {}", out.display());
    Ok(())
}

fn load_pipeline_file(path: &str) -> Result<TrainedPipeline, DomdError> {
    domd::core::read_pipeline_file(Path::new(path))
}

fn cmd_evaluate(args: &Args) -> Result<(), DomdError> {
    let ds = load_dataset(args)?;
    let pipeline = load_pipeline_file(args.require("model")?)?;
    let seed: u64 = args.parse_opt("split-seed", 7u64)?;
    let split = ds.split(seed);
    let inputs = PipelineInputs::build(&ds, pipeline.config.grid_step);
    let table = EvalTable::compute(&pipeline, &inputs, &split.test);
    println!("test set: the {} most recent avails", split.test.len());
    print!("{}", table.render());
    Ok(())
}

fn cmd_query(args: &Args) -> Result<(), DomdError> {
    let ds = load_dataset(args)?;
    let pipeline = load_pipeline_file(args.require("model")?)?;
    let avail = domd::data::AvailId(
        args.require("avail")?
            .parse()
            .map_err(|e| DomdError::config(format!("bad --avail: {e}")))?,
    );
    let engine = DomdQueryEngine::new(&ds, &pipeline);

    let answer = if let Some(date) = args.get("date") {
        let t: Date = date.parse()?;
        engine.query_at(avail, t).ok_or_else(|| {
            DomdError::config(format!("avail {avail} unknown or not started by {t}"))
        })?
    } else {
        let t_star: f64 = args.parse_opt("t-star", 100.0)?;
        engine.query_logical(avail, t_star).ok_or_else(|| {
            DomdError::config(format!("avail {avail} not present in the dataset"))
        })?
    };

    for w in &answer.warnings {
        eprintln!("warning: {w}");
    }
    println!("DoMD estimates for {avail} (t* now = {:.1}%):", answer.t_star_now);
    for e in &answer.estimates {
        println!("  at {:>5.1}% of planned duration: {:>8.1} days", e.t_star, e.estimated_delay);
    }
    match answer.latest() {
        Some(latest) => {
            let caveat = if answer.degraded { " (degraded answer, see warnings)" } else { "" };
            println!("headline estimate: {:.1} days{caveat}", latest.estimated_delay);
        }
        None => println!("no timeline anchor reached yet"),
    }
    Ok(())
}

fn cmd_optimize(args: &Args) -> Result<(), DomdError> {
    use domd::core::{optimize, OptimizerSettings};
    let ds = load_dataset(args)?;
    let grid_step = check_grid_step(args.parse_opt("grid-step", 10.0)?)?;
    let quick: bool = args.parse_opt("quick", true)?;
    let settings = if quick {
        OptimizerSettings {
            k_grid: vec![20, 40, 60],
            trial_grid: vec![10, 30],
            chosen_trials: 30,
            ..OptimizerSettings::default()
        }
    } else {
        OptimizerSettings::default()
    };
    let mut base = PipelineConfig::default0();
    base.grid_step = grid_step;
    let splits = [7u64, 8, 12].map(|seed| ds.split(seed));
    eprintln!("running greedy pipeline optimization (Tasks 2-6, 3-split panel)...");
    let inputs = PipelineInputs::build(&ds, grid_step);
    let report = optimize(&inputs, &splits, &settings, &base);
    print!("{}", report.render());
    if let Some(out) = args.get("out") {
        let pipeline = TrainedPipeline::fit(&inputs, &splits[0].train, &report.final_config);
        domd::core::write_pipeline_file(Path::new(out), &pipeline)?;
        println!("saved optimized pipeline artifact to {out}");
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), DomdError> {
    let ds = load_dataset(args)?;
    let report = ds.validate();
    let (errors, warnings) = report.counts();
    for f in report.findings.iter().take(50) {
        println!("{f}");
    }
    if report.findings.len() > 50 {
        println!("... and {} more findings", report.findings.len() - 50);
    }
    println!("{errors} error(s), {warnings} warning(s)");
    if report.is_usable() {
        println!("dataset is usable for training");
        Ok(())
    } else {
        Err(DomdError::schema(format!("dataset failed validation with {errors} error(s)")))
    }
}

fn cmd_obfuscate(args: &Args) -> Result<(), DomdError> {
    let ds = load_dataset(args)?;
    let out_dir = PathBuf::from(args.require("out-dir")?);
    let key = domd::data::ObfuscationKey::new(args.parse_opt("key", 0xD0_4Du64)?);
    let ob = domd::data::obfuscate(&ds, &key);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| DomdError::io(format!("creating {}", out_dir.display()), e))?;
    write_file(&out_dir.join("avails.csv"), nmd_csv::write_avails(&ob))?;
    write_file(&out_dir.join("rccs.csv"), nmd_csv::write_rccs(&ob))?;
    println!(
        "wrote obfuscated export ({} avails, {} RCCs; dates shifted {} days, amounts x{:.3}) to {}",
        ob.avails().len(),
        ob.rccs().len(),
        key.date_shift,
        key.amount_scale,
        out_dir.display()
    );
    Ok(())
}

/// Prints a [`RecoveryReport`](domd::index::RecoveryReport) in the
/// operator vocabulary of the README runbook.
fn print_recovery_report(report: &domd::index::RecoveryReport) {
    println!(
        "recovered onto checkpoint epoch {} ({})",
        report.checkpoint_epoch,
        report.checkpoint_path.display()
    );
    if report.generations_tried > 1 {
        println!("  examined {} checkpoint generation(s)", report.generations_tried);
        for d in &report.damaged_generations {
            println!("  skipped damaged generation: {d}");
        }
    }
    println!(
        "  replayed {} WAL record(s) ({} already checkpointed)",
        report.replayed, report.skipped
    );
    println!(
        "  record versions: checkpoint v{}, {} v1 + {} v2 WAL record(s), \
         {} row(s) carrying full payloads",
        report.checkpoint_version, report.replayed_v1, report.replayed_v2, report.full_rows
    );
    match &report.tail_fault {
        Some(fault) => println!(
            "  removed {} damaged tail byte(s) from the live WAL: {fault}",
            report.discarded_bytes
        ),
        None => println!("  WAL tail intact"),
    }
    if let Some(q) = &report.quarantined_tail {
        println!("  removed tail preserved at {}", q.display());
    }
    println!("  live state: {} RCC(s) at epoch {}", report.rows, report.epoch);
}

/// The store directories a `--store` argument addresses: the directory
/// itself when it is an initialized single store (the `domd checkpoint`
/// layout), otherwise its `tenant-N` sub-stores (the `domd serve`
/// layout), sorted by tenant number. A directory with neither is a
/// configuration error, not an empty success.
fn store_targets(base: &Path) -> Result<Vec<PathBuf>, DomdError> {
    let store = domd::storage::Store::open(base).map_err(DomdError::from)?;
    if store.is_initialized().map_err(DomdError::from)? {
        return Ok(vec![base.to_path_buf()]);
    }
    let entries = std::fs::read_dir(base)
        .map_err(|e| DomdError::io(format!("reading {}", base.display()), e))?;
    let mut tenants: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry =
            entry.map_err(|e| DomdError::io(format!("reading {}", base.display()), e))?;
        let name = entry.file_name();
        let Some(n) = name.to_str().and_then(|s| s.strip_prefix("tenant-")) else {
            continue;
        };
        if n.parse::<u64>().is_ok() && entry.path().is_dir() {
            // domd-lint: allow(no-panic) — the parse just succeeded on this same string
            tenants.push((n.parse().expect("checked tenant number"), entry.path()));
        }
    }
    if tenants.is_empty() {
        return Err(DomdError::config(format!(
            "store {} has no checkpoint and no tenant-N sub-stores; nothing to open",
            base.display()
        )));
    }
    tenants.sort();
    Ok(tenants.into_iter().map(|(_, p)| p).collect())
}

/// `domd recover --store DIR`: rebuild from the newest intact checkpoint
/// plus the longest valid WAL prefix, compact the damaged tail away, and
/// report what happened — per tenant sub-store when DIR is a `domd
/// serve` store. Exits 9 when no generation verifies.
fn cmd_recover(args: &Args) -> Result<(), DomdError> {
    let store = PathBuf::from(args.require("store")?);
    let targets = store_targets(&store)?;
    let many = targets.len() > 1;
    for dir in targets {
        if many {
            println!("{}:", dir.display());
        }
        let (_index, report) = domd::index::DurableIndex::recover(&dir)?;
        print_recovery_report(&report);
    }
    Ok(())
}

/// `domd migrate-store --store DIR --data-dir DIR`: upgrade a pre-v2
/// store in place. Recovery loads each (sub-)store, projection-only rows
/// are resolved to their full RCCs against the extracts (only when the
/// stored projection matches the extract's bit-for-bit), and an
/// immediate checkpoint persists the upgraded rows as v2 entries and
/// truncates the WAL. After migration the store rebuilds serving state
/// by itself — the extracts are no longer load-bearing at startup.
fn cmd_migrate_store(args: &Args) -> Result<(), DomdError> {
    use domd::index::DurableIndex;
    use domd::serve::resolve_v1_row;
    let store = PathBuf::from(args.require("store")?);
    let ds = load_dataset(args)?;
    let projected = domd::index::project_dataset(&ds);
    for dir in store_targets(&store)? {
        let (mut index, report) = DurableIndex::recover(&dir)?;
        print_recovery_report(&report);
        let upgraded = index
            .migrate_full(|logical| resolve_v1_row(&ds, &projected, logical))
            .map_err(DomdError::from)?;
        let unresolved = index.len() - index.full_rows();
        let path = index.checkpoint()?;
        println!(
            "migrated {}: {} row(s) upgraded; {} of {} now carry full payloads; \
             compacted into {} (WAL truncated)",
            dir.display(),
            upgraded,
            index.full_rows(),
            index.len(),
            path.display()
        );
        if unresolved > 0 {
            eprintln!(
                "warning: {unresolved} row(s) in {} did not match the extracts and stay \
                 projection-only; re-export extracts covering them and re-run",
                dir.display()
            );
        }
    }
    Ok(())
}

/// `domd checkpoint --store DIR [--data-dir DIR]`: on an existing store,
/// recover and compact the WAL into a fresh checkpoint generation; with
/// `--data-dir` on an empty store, initialize it from the extracts'
/// logical projection (the epoch-0 checkpoint).
fn cmd_checkpoint(args: &Args) -> Result<(), DomdError> {
    use domd::index::DurableIndex;
    let store_dir = PathBuf::from(args.require("store")?);
    let store = domd::storage::Store::open(&store_dir).map_err(DomdError::from)?;
    if !store.is_initialized().map_err(DomdError::from)? {
        if args.get("data-dir").is_none() {
            return Err(DomdError::config(format!(
                "store {} has no checkpoint yet; pass --data-dir to initialize it",
                store_dir.display()
            )));
        }
        let ds = load_dataset(args)?;
        let projected = domd::index::project_dataset(&ds);
        // Full-row (v2) initialization: the epoch-0 checkpoint carries
        // each row's RCC fields, so the store can rebuild serving state
        // without the extracts from its very first generation.
        let index = DurableIndex::create_full(
            &store_dir,
            projected.iter().copied().zip(ds.rccs().iter().cloned()),
        )?;
        println!(
            "initialized store {} with {} RCC(s) at epoch 0 (full v2 payloads)",
            store_dir.display(),
            index.len()
        );
        return Ok(());
    }
    let (mut index, report) = DurableIndex::recover(&store_dir)?;
    print_recovery_report(&report);
    let path = index.checkpoint()?;
    println!("compacted into {} (WAL truncated)", path.display());
    Ok(())
}

/// `domd serve`: the long-running request loop. Loads the extracts and
/// the pipeline artifact, optionally opens the durable store — one
/// sub-store per tenant under `--store DIR` (`DIR/tenant-0`, …),
/// initialized with full v2 payloads on first start, recovered
/// (announcing any damage on stderr *before* accepting traffic) on every
/// later one — then serves the newline protocol from stdin (or
/// `--script FILE`) until EOF or a `quit` line — the clean-shutdown path.
///
/// A recovered sub-store is the system of record: the serving snapshot
/// is built from its rows in bulk, so rows the extracts have never seen
/// — every previously acked ingest — are served again after a restart,
/// from the acking epoch's dataset bit for bit (status sums may differ
/// in their last bits: a restart adds in table order, not arrival order).
/// Projection-only rows from a pre-v2 store are resolved against the
/// extracts when they provably match; anything else is a typed refusal
/// naming `domd migrate-store` as the repair. With `--store`, ingests
/// fsync before acking by default (`--ack-sync false` restores
/// group-commit batching at the cost of the ack guarantee).
///
/// Responses stream to stdout as they complete; refusals are typed
/// (`kind=overloaded` / `kind=deadline`, both `retryable=true`) so
/// clients can back off, and a session summary lands on stderr.
fn cmd_serve(args: &Args) -> Result<(), DomdError> {
    use domd::serve::{
        announce_recovery, rebuild_tenant, run_session, ServeConfig, ServeCore, SharedModel,
        TenantSnapshot, WallClock,
    };
    let ds = load_dataset(args)?;
    let pipeline = std::sync::Arc::new(load_pipeline_file(args.require("model")?)?);
    let tenants: usize = args.parse_opt("tenants", 1usize)?;
    if tenants == 0 {
        return Err(DomdError::config("--tenants must be at least 1"));
    }
    let config = ServeConfig {
        workers: args.parse_opt("workers", 2usize)?.max(1),
        queue_capacity: args.parse_opt("queue-capacity", 64usize)?,
        default_budget: args.parse_opt("deadline-ms", 200u64)?,
        // Durable serving defaults to fsync-on-ack: an acked ingest
        // survives `kill -9` at any later instant. SIGTERM-initiated
        // shutdowns need no special handling — durability never waits
        // for the clean-exit sync.
        sync_each_ingest: args.parse_opt("ack-sync", args.get("store").is_some())?,
        ..ServeConfig::default()
    };
    let model = SharedModel { pipeline, features: domd::features::FeatureEngine::default() };

    // Per-tenant serving state. Without a store each tenant serves its
    // own epoch-versioned copy of the extracts; with one, the store is
    // the system of record and the snapshot is rebuilt from it.
    let mut snapshots: Vec<TenantSnapshot> = Vec::with_capacity(tenants);
    let mut durables: Vec<Option<domd::index::DurableIndex>> = Vec::with_capacity(tenants);
    if let Some(store) = args.get("store") {
        use domd::index::DurableIndex;
        let verify_extracts: bool = args.parse_opt("verify-extracts", false)?;
        let base = Path::new(store);
        // Serve keeps one durable sub-store per tenant: per-store row ids
        // can never collide across tenants. A store initialized at the
        // top level (e.g. by `domd checkpoint --store`) is a different
        // layout — refuse it with directions instead of shadowing it with
        // fresh, empty sub-stores.
        let top = domd::storage::Store::open(base).map_err(DomdError::from)?;
        if top.is_initialized().map_err(DomdError::from)? {
            return Err(DomdError::config(format!(
                "store {} is initialized at its top level, but `domd serve` keeps one \
                 sub-store per tenant ({}/tenant-0, ...); move the existing store into \
                 tenant-0 or pass a fresh directory",
                base.display(),
                base.display()
            )));
        }
        let projected = domd::index::project_dataset(&ds);
        for t in 0..tenants {
            let dir = base.join(format!("tenant-{t}"));
            let sub = domd::storage::Store::open(&dir).map_err(DomdError::from)?;
            if !sub.is_initialized().map_err(DomdError::from)? {
                // First start: the epoch-0 checkpoint carries the full
                // extract rows (v2), so every later start can rebuild
                // serving state from the store alone.
                let index = DurableIndex::create_full(
                    &dir,
                    projected.iter().copied().zip(ds.rccs().iter().cloned()),
                )?;
                eprintln!(
                    "serve: tenant {t}: initialized durable store {} from the extracts \
                     ({} row(s) at epoch 0, full v2 payloads)",
                    dir.display(),
                    index.len()
                );
                snapshots.push(TenantSnapshot::from_dataset(ds.clone()));
                durables.push(Some(index));
            } else {
                // Startup recovery: any WAL damage is surfaced to the
                // operator before the first request is admitted. An
                // unrecoverable store is a typed `Corrupt` failure
                // (exit 9) — never a partial start.
                let (index, report) = DurableIndex::recover(&dir)?;
                eprintln!("serve: tenant {t}: durable store {}", dir.display());
                announce_recovery(&mut std::io::stderr().lock(), &report);
                // The store is the system of record: rebuild this
                // tenant's snapshot from its recovered rows, so every
                // durably acked ingest is served again, from the dataset
                // that acked it (sums may differ in their last bits).
                let (snap, summary) = rebuild_tenant(&ds, &index)?;
                eprintln!(
                    "serve: tenant {t}: rebuilt {} row(s) from the store ({} full-payload, \
                     {} resolved against the extracts)",
                    summary.rows, summary.from_store, summary.from_extracts
                );
                if summary.matches_extracts {
                    eprintln!(
                        "serve: tenant {t}: cross-check: store matches the extracts' projection"
                    );
                } else if verify_extracts {
                    return Err(DomdError::config(format!(
                        "store {} diverges from the extracts' projection and \
                         --verify-extracts true was given; re-export extracts covering \
                         every ingested row or drop the flag to serve from the store alone",
                        dir.display()
                    )));
                } else {
                    eprintln!(
                        "serve: tenant {t}: cross-check: store has diverged from the \
                         extracts (expected after ingests); serving the store's rows"
                    );
                }
                snapshots.push(snap);
                durables.push(Some(index));
            }
        }
    } else {
        for _ in 0..tenants {
            snapshots.push(TenantSnapshot::from_dataset(ds.clone()));
            durables.push(None);
        }
    }
    let mut core = ServeCore::new(config, WallClock::new(), model, snapshots);
    for (t, durable) in durables.into_iter().enumerate() {
        if let Some(index) = durable {
            core = core.with_durable(t, index)?;
        }
    }

    let workers = core.config().workers;
    let capacity = core.config().queue_capacity;
    let budget = core.config().default_budget;
    eprintln!(
        "serve: ready — {tenants} tenant(s), {workers} worker(s), queue capacity {capacity}, \
         deadline {budget} ms; send `status|predict|alert|ingest` lines, `quit` or EOF to stop"
    );
    let mut out = std::io::stdout();
    let stats = match args.get("script") {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| DomdError::io(format!("opening --script {path}"), e))?;
            run_session(&core, std::io::BufReader::new(file), &mut out)
        }
        None => run_session(&core, std::io::BufReader::new(std::io::stdin()), &mut out),
    };
    // Clean shutdown: fsync every tenant's WAL so acknowledged ingests
    // survive a machine crash right after exit, not just the exit itself.
    core.sync_durable()?;
    let m = core.metrics();
    eprintln!(
        "serve: session closed — {} request(s) ({} malformed line(s) refused): {} ok, {} failed, \
         {} shed queue-full, {} shed deadline, {} degraded, {} epoch(s) published, \
         {} row(s) ingested",
        stats.requests,
        stats.malformed,
        m.completed_ok,
        m.failed,
        m.shed_queue_full,
        m.shed_deadline,
        m.degraded_served,
        m.epochs_published,
        m.rows_ingested,
    );
    eprintln!(
        "serve: queue peak {}/{}; breaker: {} trip(s), {} recover(ies)",
        core.queue().peak_depth(),
        capacity,
        m.breaker_trips,
        m.breaker_recoveries,
    );
    Ok(())
}

fn usage() -> &'static str {
    "usage:\n  domd generate --out-dir DIR [--seed N] [--avails N] [--rccs N] [--scale N]\n  domd train    --data-dir DIR --out FILE [--grid-step X] [--split-seed N]\n  domd evaluate --data-dir DIR --model FILE [--split-seed N]\n  domd query    --data-dir DIR --model FILE --avail N [--t-star P | --date M/D/YYYY]\n  domd validate  --data-dir DIR\n  domd obfuscate --data-dir DIR --out-dir DIR [--key N]\n  domd optimize  --data-dir DIR [--out FILE] [--quick true|false]\n  domd checkpoint --store DIR [--data-dir DIR]   compact WAL into a new checkpoint\n                                                 (--data-dir initializes an empty store)\n  domd recover    --store DIR                    replay WAL onto newest intact checkpoint\n                                                 (per tenant sub-store for a serve store)\n  domd migrate-store --store DIR --data-dir DIR  upgrade a pre-v2 store in place: resolve\n                                                 projection-only rows against the extracts\n                                                 and checkpoint them as full v2 payloads\n  domd serve      --data-dir DIR --model FILE [--store DIR] [--tenants N] [--workers N]\n                  [--queue-capacity N] [--deadline-ms N] [--script FILE]\n                  [--ack-sync true|false] [--verify-extracts true|false]\n                  long-running request loop over stdin (status|predict|alert|ingest lines;\n                  quit or EOF shuts down cleanly); refusals are typed and retryable;\n                  --store keeps one durable sub-store per tenant (DIR/tenant-0, ...),\n                  initialized on first start, then rebuilt from the store alone on every\n                  restart; with --store, ingests fsync before acking (--ack-sync false\n                  restores group-commit batching)\n\nevery command reading --data-dir also accepts --lenient true (quarantine\nbad extract rows instead of failing); every command accepts --threads N to\ncap the worker pool (0 = auto; results are identical for every value) and\nrefuses any other flag it does not read"
}

type Command = fn(&Args) -> Result<(), DomdError>;

/// Every command with the flags it reads besides the global `--threads`
/// (`--data-dir` and `--lenient` wherever it loads the extracts).
const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("generate", cmd_generate, &["out-dir", "avails", "rccs", "scale", "seed"]),
    ("train", cmd_train, &["data-dir", "lenient", "out", "grid-step", "split-seed"]),
    ("evaluate", cmd_evaluate, &["data-dir", "lenient", "model", "split-seed"]),
    ("query", cmd_query, &["data-dir", "lenient", "model", "avail", "date", "t-star"]),
    ("validate", cmd_validate, &["data-dir", "lenient"]),
    ("obfuscate", cmd_obfuscate, &["data-dir", "lenient", "out-dir", "key"]),
    ("optimize", cmd_optimize, &["data-dir", "lenient", "grid-step", "quick", "out"]),
    ("checkpoint", cmd_checkpoint, &["store", "data-dir", "lenient"]),
    ("recover", cmd_recover, &["store"]),
    ("migrate-store", cmd_migrate_store, &["store", "data-dir", "lenient"]),
    (
        "serve",
        cmd_serve,
        &[
            "data-dir",
            "lenient",
            "model",
            "tenants",
            "workers",
            "queue-capacity",
            "deadline-ms",
            "ack-sync",
            "store",
            "verify-extracts",
            "script",
        ],
    ),
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| {
        let Some(&(_, run, flags)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
            return Err(DomdError::config(format!("unknown command {cmd:?}\n{}", usage())));
        };
        args.check_known(cmd, flags)?;
        // Worker cap for every parallel path (sweep, training, batch
        // queries). 0 = auto-detect; results are identical at any value.
        let threads: usize = args.parse_opt("threads", 0usize)?;
        domd::runtime::set_threads(threads);
        run(&args)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error [{}]: {e}", e.kind());
            ExitCode::from(exit_code(&e))
        }
    }
}
