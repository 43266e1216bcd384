//! Consistency-model conformance suite (ISSUE 9).
//!
//! The metadata plane publishes copy-on-write dataset snapshots at
//! points chosen by the open-time [`ConsistencyModel`]; this suite
//! machine-checks observed reads against each model's formal visibility
//! rule over seeded concurrent histories:
//!
//! - **Strong**: a published read observes exactly the completed writes
//!   (publication at mutation — POSIX-like).
//! - **Session**: floor ⊆ observed ⊆ completed, where the floor is the
//!   completed set at the latest settlement (`publish_settled`) or
//!   flush.
//! - **Commit**: floor ⊆ observed ⊆ completed, floor taken at the
//!   latest successful flush only.
//!
//! The seeded histories come from `argolite::explore` (one schedule per
//! seed over writers × publication points × readers); scripted
//! `explore::replay` schedules then *prove* the models are
//! pairwise distinguishable — a stale read the weaker model lawfully
//! returns and the stronger model forbids. The connector-level tests
//! pin the same boundaries end to end through `AsyncVol`: settlement
//! (`wait`) publishes under session, only flush publishes under commit.

use std::sync::Arc;

use apio::h5lite::{
    container::ROOT_ID, datatype::to_bytes, ConsistencyModel, Container, Dataspace, Datatype,
    Hyperslab, Layout, Selection,
};

/// Writers cover one chunk each so "which writes are visible" is
/// readable straight off the returned bytes.
const WRITERS: u64 = 4;
const CHUNK: u64 = 8;

fn chunk_sel(i: u64) -> Selection {
    Selection::Slab(Hyperslab::range1(i * CHUNK, CHUNK))
}

fn chunk_payload(i: u64) -> Vec<u8> {
    to_bytes(&vec![(i + 1) as f32; CHUNK as usize])
}

/// A container with one chunked dataset sized for [`WRITERS`] chunks.
fn fixture(model: ConsistencyModel) -> (Arc<Container>, apio::h5lite::ObjectId) {
    let c = Arc::new(Container::create_mem_with(model));
    let ds = c
        .create_dataset(
            ROOT_ID,
            "d",
            Datatype::F32,
            &Dataspace::d1(WRITERS * CHUNK),
            Layout::Chunked1D { chunk_elems: CHUNK },
        )
        .expect("create dataset");
    (c, ds)
}

/// Which chunks a published read currently observes. Every chunk must
/// be all-payload or all-fill — a mix means a torn publication, which
/// no model permits.
fn observed_chunks(c: &Container, ds: apio::h5lite::ObjectId) -> Result<Vec<u64>, String> {
    let mut seen = Vec::new();
    for i in 0..WRITERS {
        let got = c
            .read_published(ds, &chunk_sel(i))
            .map_err(|e| format!("published read of chunk {i}: {e}"))?;
        if got == chunk_payload(i) {
            seen.push(i);
        } else if got != vec![0u8; (CHUNK * 4) as usize] {
            return Err(format!("chunk {i} read torn: neither payload nor fill"));
        }
    }
    Ok(seen)
}

#[cfg(feature = "debug-invariants")]
mod seeded {
    use super::*;
    use apio::argolite::explore::{explore, ExploreStep, TaskGraph};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    fn seed_count() -> u64 {
        std::env::var("APIO_EXPLORE_SEEDS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(64)
    }

    /// Shared per-schedule history the tasks append to and the readers
    /// check against. The explorer runs task bodies one at a time, so
    /// each body is an atomic history event.
    #[derive(Default)]
    struct History {
        /// Chunks whose write completed.
        completed: BTreeSet<u64>,
        /// Visibility floor: completed-set captured at the latest
        /// publication point this model honours.
        floor: BTreeSet<u64>,
        /// Invariant violations found inside reader bodies.
        violations: Vec<String>,
        /// Did any reader observe strictly fewer chunks than were
        /// completed (a stale-but-lawful read)?
        stale_reads: u64,
        reads: u64,
    }

    /// One seeded conformance sweep: WRITERS writers, one settlement,
    /// one flush, two readers, no edges — every interleaving is legal.
    /// After every step each reader's observation must satisfy
    /// floor ⊆ observed ⊆ completed (with floor == completed for
    /// strong). Returns the total stale lawful reads across all seeds.
    fn conformance_sweep(model: ConsistencyModel) -> u64 {
        let seeds = seed_count();
        let history: Arc<Mutex<History>> = Arc::new(Mutex::new(History::default()));
        let stale_total = Arc::new(Mutex::new(0u64));

        let build = {
            let history = history.clone();
            let stale_total = stale_total.clone();
            move || {
                *history.lock().unwrap() = History::default();
                let (c, ds) = fixture(model);
                let mut g = TaskGraph::new();
                for i in 0..WRITERS {
                    let c = c.clone();
                    let history = history.clone();
                    g.add_task(format!("write:{i}"), move || {
                        c.write_selection(ds, &chunk_sel(i), &chunk_payload(i))
                            .expect("chunk write");
                        history.lock().unwrap().completed.insert(i);
                    });
                }
                {
                    let c = c.clone();
                    let history = history.clone();
                    g.add_task("settle", move || {
                        c.publish_settled();
                        let mut h = history.lock().unwrap();
                        if model == ConsistencyModel::Session {
                            h.floor = h.completed.clone();
                        }
                    });
                }
                {
                    let c = c.clone();
                    let history = history.clone();
                    g.add_task("flush", move || {
                        c.flush().expect("flush");
                        let mut h = history.lock().unwrap();
                        // Flush publishes under every model (strong
                        // already published at mutation).
                        h.floor = h.completed.clone();
                    });
                }
                for r in 0..2u64 {
                    let c = c.clone();
                    let history = history.clone();
                    let stale_total = stale_total.clone();
                    g.add_task(format!("read:{r}"), move || {
                        let observed: BTreeSet<u64> = match observed_chunks(&c, ds) {
                            Ok(seen) => seen.into_iter().collect(),
                            Err(e) => {
                                history.lock().unwrap().violations.push(e);
                                return;
                            }
                        };
                        let mut h = history.lock().unwrap();
                        h.reads += 1;
                        let lower = match model {
                            ConsistencyModel::Strong => h.completed.clone(),
                            _ => h.floor.clone(),
                        };
                        if !lower.is_subset(&observed) {
                            h.violations.push(format!(
                                "reader {r}: observed {observed:?} misses published floor {lower:?}"
                            ));
                        }
                        let completed = h.completed.clone();
                        if !observed.is_subset(&completed) {
                            h.violations.push(format!(
                                "reader {r}: observed {observed:?} beyond completed {completed:?}"
                            ));
                        }
                        if observed != completed {
                            h.stale_reads += 1;
                            *stale_total.lock().unwrap() += 1;
                        }
                    });
                }
                g
            }
        };

        let invariant = |s: &ExploreStep<'_>| {
            let h = history.lock().unwrap();
            match h.violations.first() {
                Some(v) => Err(format!("after `{}`: {v}", s.label)),
                None => Ok(()),
            }
        };
        let report = explore(seeds, build, invariant);
        assert!(report.ok(), "[{model:?}] {}", report.failure.unwrap());
        assert_eq!(report.seeds_run, seeds);
        assert!(
            report.distinct_orders >= 2,
            "[{model:?}] {seeds}-seed sweep must exercise schedule diversity, saw {}",
            report.distinct_orders
        );
        let total = *stale_total.lock().unwrap();
        total
    }

    /// Strong conformance: every seeded schedule linearizes — a
    /// published read observes exactly the completed writes, so the
    /// sweep must report zero stale reads.
    #[test]
    fn strong_conformance_no_schedule_observes_a_stale_read() {
        let stale = conformance_sweep(ConsistencyModel::Strong);
        assert_eq!(
            stale, 0,
            "strong forbids stale reads on every schedule, saw {stale}"
        );
    }

    /// Session conformance: every schedule respects the settlement
    /// floor, and at least one schedule observes a stale read that
    /// strong forbids — the model is genuinely weaker, not an alias.
    #[test]
    fn session_conformance_and_distinguishability_from_strong() {
        let stale = conformance_sweep(ConsistencyModel::Session);
        assert!(
            stale > 0,
            "no explored schedule distinguished session from strong; \
             raise APIO_EXPLORE_SEEDS"
        );
    }

    /// Commit conformance: same shape, floor at flush only.
    #[test]
    fn commit_conformance_and_distinguishability_from_strong() {
        let stale = conformance_sweep(ConsistencyModel::Commit);
        assert!(
            stale > 0,
            "no explored schedule distinguished commit from strong; \
             raise APIO_EXPLORE_SEEDS"
        );
    }

    /// The scripted proofs: replay the *same* schedule under each model
    /// and diff what the reader sees. `[write, read]` separates strong
    /// from both weak models; `[write, settle, read]` separates session
    /// from commit.
    #[test]
    fn scripted_replays_prove_the_models_pairwise_distinct() {
        use apio::argolite::explore::replay;

        fn observe_after(model: ConsistencyModel, schedule: &[&str]) -> Vec<u64> {
            let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
            let build = {
                let out = out.clone();
                move || {
                    let (c, ds) = fixture(model);
                    let mut g = TaskGraph::new();
                    {
                        let c = c.clone();
                        g.add_task("write", move || {
                            c.write_selection(ds, &chunk_sel(0), &chunk_payload(0))
                                .expect("write");
                        });
                    }
                    {
                        let c = c.clone();
                        g.add_task("settle", move || c.publish_settled());
                    }
                    {
                        let c = c.clone();
                        g.add_task("flush", move || c.flush().expect("flush"));
                    }
                    {
                        let c = c.clone();
                        let out = out.clone();
                        g.add_task("read", move || {
                            *out.lock().unwrap() =
                                observed_chunks(&c, ds).expect("published read");
                        });
                    }
                    g
                }
            };
            let schedule: Vec<String> = schedule.iter().map(|s| (*s).to_owned()).collect();
            replay(build, &schedule, |_| Ok(())).expect("replay");
            let got = out.lock().unwrap().clone();
            got
        }

        // Write, then read, with no publication point in between:
        // strong sees the write; session and commit lawfully do not.
        let schedule = ["write", "read"];
        assert_eq!(observe_after(ConsistencyModel::Strong, &schedule), vec![0]);
        assert_eq!(observe_after(ConsistencyModel::Session, &schedule), Vec::<u64>::new());
        assert_eq!(observe_after(ConsistencyModel::Commit, &schedule), Vec::<u64>::new());

        // Settlement before the read: session now sees it, commit still
        // does not — flush is its only publication point.
        let schedule = ["write", "settle", "read"];
        assert_eq!(observe_after(ConsistencyModel::Session, &schedule), vec![0]);
        assert_eq!(observe_after(ConsistencyModel::Commit, &schedule), Vec::<u64>::new());

        // Flush publishes under every model.
        let schedule = ["write", "flush", "read"];
        for model in [
            ConsistencyModel::Strong,
            ConsistencyModel::Session,
            ConsistencyModel::Commit,
        ] {
            assert_eq!(observe_after(model, &schedule), vec![0], "{model:?}");
        }
    }
}

/// The same three-way separation without the explorer (tier-1 path):
/// one sequential history, three models, three different answers at
/// each boundary.
#[test]
fn publication_boundaries_separate_the_models_sequentially() {
    for model in [
        ConsistencyModel::Strong,
        ConsistencyModel::Session,
        ConsistencyModel::Commit,
    ] {
        let (c, ds) = fixture(model);
        assert_eq!(c.consistency_model(), model);
        c.write_selection(ds, &chunk_sel(0), &chunk_payload(0))
            .expect("write");

        // The working-state read is visibility-exempt: it always sees
        // the writer's own data (read-your-writes within the handle).
        assert_eq!(
            c.read_selection(ds, &chunk_sel(0)).expect("working read"),
            chunk_payload(0),
            "[{model:?}] working reads are not deferred"
        );

        let after_write = observed_chunks(&c, ds).expect("read");
        c.publish_settled();
        let after_settle = observed_chunks(&c, ds).expect("read");
        c.flush().expect("flush");
        let after_flush = observed_chunks(&c, ds).expect("read");

        let visible = |v: &Vec<u64>| v == &vec![0];
        match model {
            ConsistencyModel::Strong => {
                assert!(visible(&after_write), "strong publishes at mutation");
            }
            ConsistencyModel::Session => {
                assert!(after_write.is_empty(), "session defers past mutation");
                assert!(visible(&after_settle), "session publishes at settlement");
            }
            ConsistencyModel::Commit => {
                assert!(after_write.is_empty(), "commit defers past mutation");
                assert!(after_settle.is_empty(), "commit defers past settlement");
            }
        }
        assert!(visible(&after_flush), "[{model:?}] flush publishes everywhere");
    }
}

/// `AsyncVol` threads the model end to end: under session consistency a
/// ring/staged write becomes visible to published readers exactly at
/// request settlement (`wait`), not when the background thread happens
/// to finish.
#[test]
fn asyncvol_settlement_is_the_session_publication_boundary() {
    use apio::asyncvol::AsyncVol;
    use apio::h5lite::Vol;

    let (c, ds) = fixture(ConsistencyModel::Session);
    let vol = AsyncVol::builder().streams(1).build();
    let req = vol
        .dataset_write(&c, ds, &chunk_sel(0), &chunk_payload(0))
        .expect("issue");
    // However the background thread races, publication cannot happen
    // before settlement under session.
    vol.wait(req).expect("settle");
    assert_eq!(
        observed_chunks(&c, ds).expect("read"),
        vec![0],
        "settlement must publish the settled write"
    );

    // Second write: visible to working reads once settled, but
    // `wait_all` is also a settlement point and must publish too.
    let _req = vol
        .dataset_write(&c, ds, &chunk_sel(1), &chunk_payload(1))
        .expect("issue");
    vol.wait_all().expect("settle all");
    assert_eq!(
        observed_chunks(&c, ds).expect("read"),
        vec![0, 1],
        "wait_all must publish every settled write"
    );
}

/// Under commit consistency the connector's settlement is *not* a
/// publication point: after `wait` the data is durable in the working
/// state (readable via `read_selection`) yet published readers still
/// see the old generation until a flush.
#[test]
fn asyncvol_commit_model_defers_publication_to_flush() {
    use apio::asyncvol::AsyncVol;
    use apio::h5lite::Vol;

    let (c, ds) = fixture(ConsistencyModel::Commit);
    let vol = AsyncVol::builder().streams(1).build();
    let req = vol
        .dataset_write(&c, ds, &chunk_sel(0), &chunk_payload(0))
        .expect("issue");
    vol.wait(req).expect("settle");
    assert_eq!(
        c.read_selection(ds, &chunk_sel(0)).expect("working read"),
        chunk_payload(0),
        "the settled write is in the working state"
    );
    assert_eq!(
        observed_chunks(&c, ds).expect("read"),
        Vec::<u64>::new(),
        "commit defers published visibility past settlement"
    );
    c.flush().expect("flush");
    assert_eq!(
        observed_chunks(&c, ds).expect("read"),
        vec![0],
        "flush publishes under commit"
    );
}

/// A captured [`MetaSnapshot`] is a stable point-in-time view: writers
/// mutating the same dataset afterwards never change what the snapshot
/// resolves, and reading through it takes zero metadata-lock
/// acquisitions.
#[test]
fn snapshot_reads_are_immutable_and_lock_free() {
    let (c, ds) = fixture(ConsistencyModel::Strong);
    c.write_selection(ds, &chunk_sel(0), &chunk_payload(0))
        .expect("write");
    let snap = c.snapshot();
    let gen_before = snap.dataset_generation(ds).expect("captured");

    // Overwrite chunk 0 and extend with a fresh chunk after capture.
    c.write_selection(ds, &chunk_sel(0), &to_bytes(&vec![99.0f32; CHUNK as usize]))
        .expect("overwrite");
    c.write_selection(ds, &chunk_sel(1), &chunk_payload(1))
        .expect("write new chunk");

    let stats_before = c.meta_lock_stats();
    let through_snap = c
        .read_snapshot(&snap, ds, &chunk_sel(0))
        .expect("snapshot read");
    let stats_after = c.meta_lock_stats();
    assert_eq!(
        stats_after.total(),
        stats_before.total(),
        "snapshot reads must take zero metadata-lock acquisitions"
    );

    // The snapshot still resolves the *old* address map: same chunk
    // extent, so the overwrite is visible through it (addresses are
    // stable, content is the device's)…
    assert_eq!(
        through_snap,
        to_bytes(&vec![99.0f32; CHUNK as usize]),
        "chunk 0 resolves to the same extent"
    );
    // …but the chunk allocated after capture does not exist in the
    // snapshot: it reads as fill, and the generation stamp is unchanged.
    assert_eq!(
        c.read_snapshot(&snap, ds, &chunk_sel(1)).expect("read"),
        vec![0u8; (CHUNK * 4) as usize],
        "post-capture allocations are invisible to the snapshot"
    );
    assert_eq!(
        snap.dataset_generation(ds).expect("still captured"),
        gen_before,
        "a captured snapshot never changes generation"
    );
    assert!(c.snapshot().dataset_generation(ds).expect("fresh") > gen_before);
}

/// The model survives reopen as a per-session property: the same file
/// opened strong and commit behaves per-open, and the on-disk format is
/// unchanged by the sharded plane.
#[test]
fn model_is_a_session_property_over_one_on_disk_format() {
    let backend = {
        let (c, ds) = fixture(ConsistencyModel::Strong);
        c.write_selection(ds, &chunk_sel(0), &chunk_payload(0))
            .expect("write");
        c.flush().expect("flush");
        c.backend()
    };

    let strong = Container::open(backend.clone()).expect("open strong");
    let ds = strong.lookup(ROOT_ID, "d").expect("lookup");
    assert_eq!(strong.consistency_model(), ConsistencyModel::Strong);
    assert_eq!(observed_chunks(&strong, ds).expect("read"), vec![0]);
    strong
        .write_selection(ds, &chunk_sel(1), &chunk_payload(1))
        .expect("write");
    assert_eq!(
        observed_chunks(&strong, ds).expect("read"),
        vec![0, 1],
        "strong session publishes at mutation"
    );
    drop(strong);

    let commit = Container::open_with(backend, ConsistencyModel::Commit).expect("open commit");
    let ds = commit.lookup(ROOT_ID, "d").expect("lookup");
    assert_eq!(commit.consistency_model(), ConsistencyModel::Commit);
    // Flushed state is the published baseline at open.
    assert_eq!(observed_chunks(&commit, ds).expect("read"), vec![0, 1]);
    commit
        .write_selection(ds, &chunk_sel(2), &chunk_payload(2))
        .expect("write");
    assert_eq!(
        observed_chunks(&commit, ds).expect("read"),
        vec![0, 1],
        "commit session defers the new chunk until flush"
    );
    commit.flush().expect("flush");
    assert_eq!(observed_chunks(&commit, ds).expect("read"), vec![0, 1, 2]);
}
