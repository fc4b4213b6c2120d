//! Persistent helper threads that fill one micro-batch's tables on all
//! the cores the process may run on.
//!
//! A [`FanOut`] lives inside a `ServingScratch`. Its helpers are spawned
//! the first time a batch needs them (the warm-up batch), park on a
//! `Mutex` + `Condvar` between batches and are joined when the scratch is
//! dropped, so a warm batch spawns nothing and allocates nothing.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Upper bound on the workers (caller included) of one batch. A batch's
/// jobs live in an array of this size, so fanning a batch out allocates
/// nothing.
pub(crate) const MAX_WORKERS: usize = 16;

/// A job lent to a helper: a borrow of a closure on the caller's stack
/// whose lifetime [`FanOut::run`] erased.
type Job = &'static mut (dyn FnMut() + Send);

/// The hand-over state between the caller and one helper.
#[derive(Default)]
struct Slot {
    /// The job to run next, taken by the helper when it starts it.
    job: Option<Job>,
    /// How the last job ended (its panic payload if it panicked), taken
    /// by the caller when it collects the job.
    done: Option<thread::Result<()>>,
    /// Set on drop: the helper exits once it has no job left.
    stop: bool,
}

#[derive(Default)]
struct Shared {
    slot: Mutex<Slot>,
    signal: Condvar,
}

impl Shared {
    /// Lock the slot. No code panics while holding it, but a poisoned lock
    /// would still hold a consistent slot, so poisoning is ignored.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.signal
            .wait(slot)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One parked helper thread.
struct Helper {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Self {
        let shared = Arc::new(Shared::default());
        let theirs = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("sato-fill".to_string())
            .spawn(move || helper_loop(&theirs))
            .expect("spawn batch fill helper thread");
        Helper {
            shared,
            thread: Some(thread),
        }
    }

    fn post(&self, job: Job) {
        let mut slot = self.shared.lock();
        slot.job = Some(job);
        slot.done = None;
        self.shared.signal.notify_all();
    }

    /// Block until the posted job has finished; its panic payload if it
    /// panicked.
    fn wait(&self) -> thread::Result<()> {
        let mut slot = self.shared.lock();
        loop {
            if let Some(outcome) = slot.done.take() {
                return outcome;
            }
            slot = self.shared.wait(slot);
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.shared.lock().stop = true;
        self.shared.signal.notify_all();
        if let Some(thread) = self.thread.take() {
            // Jobs run under `catch_unwind`, so the loop itself never
            // panics; there is nothing to report.
            let _ = thread.join();
        }
    }
}

fn helper_loop(shared: &Shared) {
    let mut slot = shared.lock();
    loop {
        if let Some(job) = slot.job.take() {
            drop(slot);
            // `job` is moved into the call and dead once it returns: the
            // helper holds no borrow of the caller's stack past this line.
            let outcome = catch_unwind(AssertUnwindSafe(job));
            slot = shared.lock();
            slot.done = Some(outcome);
            shared.signal.notify_all();
        } else if slot.stop {
            return;
        } else {
            slot = shared.wait(slot);
        }
    }
}

/// The fan-out workers of one serving scratch: a width, resolved once,
/// and one parked helper per extra worker, spawned on first use.
#[derive(Default)]
pub(crate) struct FanOut {
    width: Option<usize>,
    helpers: Vec<Helper>,
}

impl FanOut {
    /// How many workers (caller included) a batch may use: the cores this
    /// thread may run on (Linux honours the affinity mask and the cgroup
    /// CPU quota), capped at [`MAX_WORKERS`]. Resolved on the first call
    /// only, because the query itself costs tens of microseconds.
    pub(crate) fn width(&mut self) -> usize {
        *self.width.get_or_insert_with(|| {
            thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(MAX_WORKERS)
        })
    }

    /// Pin the width instead of querying the host (parity tests only).
    #[cfg(test)]
    pub(crate) fn set_width(&mut self, width: usize) {
        self.width = Some(width.clamp(1, MAX_WORKERS));
    }

    /// Number of helper threads spawned so far.
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Run every job to completion: `jobs[0]` on the calling thread, each
    /// later job on its own helper, all at once. If any job panics, the
    /// remaining jobs still run to the end, and then the first panic in
    /// job order resumes on the caller with its original payload.
    pub(crate) fn run<J: FnMut() + Send>(&mut self, jobs: &mut [J]) {
        let Some((own, lent)) = jobs.split_first_mut() else {
            return;
        };
        while self.helpers.len() < lent.len() {
            self.helpers.push(Helper::spawn());
        }
        let helpers = &self.helpers[..lent.len()];
        for (helper, job) in helpers.iter().zip(lent.iter_mut()) {
            let job: &mut (dyn FnMut() + Send) = job;
            // SAFETY: the erased borrow points at a closure in `jobs`, which
            // outlives this call. The helper drops the borrow before it
            // signals done, and this function neither returns nor unwinds
            // before every posted helper has signalled done: posting and
            // waiting only lock (poisoning ignored) and notify, the caller's
            // own job runs under `catch_unwind`, and a panic is resumed only
            // after the wait loop below has collected every helper. `jobs`
            // is exclusively borrowed here, so nothing else touches a lent
            // closure meanwhile.
            let job: Job = unsafe { std::mem::transmute::<&mut (dyn FnMut() + Send), Job>(job) };
            helper.post(job);
        }
        let mut panic = catch_unwind(AssertUnwindSafe(own)).err();
        for helper in helpers {
            if let Err(payload) = helper.wait() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::FanOut;
    use crate::columnwise::model_topic_memo;
    use crate::{SatoConfig, SatoModel, SatoPredictor, SatoVariant, ServingScratch};
    use sato_tabular::colstore::{corpus_to_bytes, ColStoreReader, TableBuf};
    use sato_tabular::corpus::default_corpus;
    use sato_tabular::table::{Column, Corpus, Table, TableCells};
    use sato_tabular::types::SemanticType;
    use sato_topic::SamplerKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, OnceLock};
    use std::time::Duration;

    /// Widths under test: one worker, two, three, and more than any test
    /// batch has tables.
    const WIDTHS: [usize; 4] = [1, 2, 3, 16];

    fn tiny_config() -> SatoConfig {
        let mut config = SatoConfig::fast();
        config.network.epochs = 5;
        config.lda.train_iterations = 15;
        config.crf.epochs = 2;
        config
    }

    /// The trained Full artifact (topic + CRF), as bytes so each test can
    /// load its own predictor under any sampler.
    fn artifact() -> &'static [u8] {
        static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
        BYTES.get_or_init(|| {
            let corpus = default_corpus(30, 23);
            SatoModel::train(&corpus, tiny_config(), SatoVariant::Full)
                .into_predictor()
                .to_bytes()
        })
    }

    fn predictor(kind: SamplerKind) -> SatoPredictor {
        SatoPredictor::from_bytes(artifact())
            .expect("artifact loads")
            .with_sampler(kind)
    }

    /// The batch shapes under test, each a list of tables with distinct ids.
    fn shapes() -> Vec<(&'static str, Vec<Table>)> {
        let base = default_corpus(24, 61);
        let wide = Table::unlabelled(
            500,
            base.iter()
                .take(6)
                .flat_map(|t| t.columns.iter().cloned())
                .collect(),
        );
        let singletons: Vec<Table> = base
            .iter()
            .take(9)
            .enumerate()
            .map(|(i, t)| Table::unlabelled(600 + i as u64, vec![t.columns[0].clone()]))
            .collect();
        let mut lopsided = vec![wide];
        lopsided.extend(singletons);
        let with_empty = vec![
            Table::unlabelled(700, vec![]),
            base.tables[10].clone(),
            Table::unlabelled(701, vec![]),
            base.tables[11].clone(),
            base.tables[12].clone(),
            Table::unlabelled(702, vec![]),
        ];
        vec![
            ("two tables", base.tables[..2].to_vec()),
            ("one wide table and singletons", lopsided),
            ("zero-column tables", with_empty),
            ("many tables", base.tables[13..].to_vec()),
        ]
    }

    fn bits(rows: &[f32]) -> Vec<u32> {
        rows.iter().map(|v| v.to_bits()).collect()
    }

    /// Decode `tables` through the columnar format into `TableBuf`s.
    fn table_bufs(tables: &[Table]) -> Vec<TableBuf> {
        let bytes = corpus_to_bytes(&Corpus::new(tables.to_vec()));
        let mut reader = ColStoreReader::new(bytes.as_slice()).expect("colstore header");
        let mut bufs = Vec::new();
        loop {
            let mut buf = TableBuf::new();
            if !reader.read_into(&mut buf).expect("colstore frame") {
                return bufs;
            }
            bufs.push(buf);
        }
    }

    /// Every width, batch shape, sampler and cell source predicts and
    /// embeds exactly what the unbatched reference does.
    #[test]
    fn fanout_is_bit_identical_at_every_width_shape_sampler_and_source() {
        for kind in [
            SamplerKind::Dense,
            SamplerKind::SparseAlias,
            SamplerKind::MetropolisHastings,
        ] {
            let predictor = predictor(kind);
            for (shape, tables) in shapes() {
                let corpus = Corpus::new(tables.clone());
                let want = predictor.reference_predict_corpus(&corpus);
                let want_embed: Vec<Vec<u32>> = tables
                    .iter()
                    .flat_map(|t| predictor.reference_column_embeddings(t))
                    .map(|row| bits(&row))
                    .collect();
                let bufs = table_bufs(&tables);
                for width in WIDTHS {
                    let what = format!("{} / {shape} / width {width}", kind.name());
                    let mut scratch = ServingScratch::new().with_fill_width(width);
                    let batch: Vec<&Table> = tables.iter().collect();
                    assert_eq!(
                        predictor.predict_batch(&batch, &mut scratch),
                        want,
                        "{what}"
                    );
                    let embedded = predictor.embed_batch(&batch, &mut scratch);
                    let got: Vec<Vec<u32>> = (0..embedded.rows())
                        .map(|r| bits(embedded.row(r)))
                        .collect();
                    assert_eq!(got, want_embed, "{what} embeddings");

                    let batch: Vec<&TableBuf> = bufs.iter().collect();
                    assert_eq!(
                        predictor.predict_batch(&batch, &mut scratch),
                        want,
                        "{what} TableBuf"
                    );
                    let bytes = corpus_to_bytes(&corpus);
                    let mut reader = ColStoreReader::new(bytes.as_slice()).unwrap();
                    assert_eq!(
                        predictor
                            .predict_colstore(&mut reader, 16, &mut scratch)
                            .unwrap(),
                        want,
                        "{what} predict_colstore"
                    );
                    assert_eq!(
                        predictor.predict_corpus_batched_with(&corpus, 16, &mut scratch),
                        want,
                        "{what} predict_corpus_batched"
                    );
                    let expected_helpers = width.min(tables.len()) - 1;
                    assert!(
                        scratch.fill_helpers() <= expected_helpers,
                        "{what}: at most one helper per extra table"
                    );
                }
            }
        }
    }

    /// With the topic memo on, cells repeated inside one batch and across
    /// batches (under fresh table ids, with evictions) leave the memo
    /// holding the token id sequences a one-worker fill would, in the same
    /// FIFO order, with the same hit and miss counts, at every width;
    /// outputs stay exact.
    #[test]
    fn fanout_keeps_topic_memo_contents_and_eviction_order() {
        let predictor = predictor(SamplerKind::Dense);
        let pool = default_corpus(10, 71).tables;
        let rounds: [&[usize]; 5] = [
            &[0, 1, 0, 2],
            &[3, 1, 4, 3, 5],
            &[0, 6, 6, 2],
            &[7, 8, 9, 7, 0, 1],
            &[2, 2],
        ];
        for capacity in [3, 64] {
            let mut scratches: Vec<ServingScratch> = WIDTHS
                .iter()
                .map(|&w| {
                    ServingScratch::new()
                        .with_topic_memo_capacity(capacity)
                        .with_fill_width(w)
                })
                .collect();
            let mut expected: Vec<Vec<usize>> = Vec::new();
            let (mut hits, mut misses) = (0, 0);
            for (round, picks) in rounds.iter().enumerate() {
                // Every request carries its own id: only the cells repeat.
                let tables: Vec<Table> = picks
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| Table {
                        id: 1000 * round as u64 + i as u64,
                        ..pool[p].clone()
                    })
                    .collect();
                let ids: Vec<Vec<usize>> = tables.iter().map(|t| predictor.token_ids(t)).collect();
                let (h, m) = model_topic_memo(&mut expected, capacity, &ids);
                (hits, misses) = (hits + h, misses + m);
                let want = predictor.reference_predict_corpus(&Corpus::new(tables.clone()));
                let batch: Vec<&Table> = tables.iter().collect();
                for (scratch, width) in scratches.iter_mut().zip(WIDTHS) {
                    let what = format!("capacity {capacity} round {round} width {width}");
                    assert_eq!(predictor.predict_batch(&batch, scratch), want, "{what}");
                    assert_eq!(scratch.topic_memo_order(), expected, "{what} memo order");
                    assert_eq!(
                        scratch.topic_memo_len(),
                        expected.len(),
                        "{what} memo length"
                    );
                    assert_eq!(
                        (scratch.topic_memo_hits(), scratch.topic_memo_misses()),
                        (hits, misses),
                        "{what} hits and misses"
                    );
                }
            }
            assert!(hits > 0, "capacity {capacity}: the rounds repeat cells");
        }
    }

    /// Panic payload of the panic tests.
    #[derive(Debug, PartialEq)]
    struct Boom(u64);

    /// A panic in the caller's job or in a helper's job resumes on the
    /// caller with its original payload, only after every other job has
    /// finished; the helpers stay parked for the next run. The barrier
    /// makes every other job finish strictly after the panic started.
    #[test]
    fn fanout_resumes_a_job_panic_after_every_job_finished() {
        let mut fanout = FanOut::default();
        for panicking in 0..3u64 {
            let finished = AtomicUsize::new(0);
            let all_started = Barrier::new(3);
            let mut jobs: Vec<_> = (0..3u64)
                .map(|i| {
                    let (finished, all_started) = (&finished, &all_started);
                    move || {
                        all_started.wait();
                        if i == panicking {
                            std::panic::panic_any(Boom(i));
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        finished.fetch_add(1, Ordering::SeqCst);
                    }
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| fanout.run(&mut jobs)))
                .expect_err("a panicking job must panic the run");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(panicking)),
                "job {panicking}: the original payload resumes"
            );
            assert_eq!(
                finished.load(Ordering::SeqCst),
                2,
                "job {panicking}: every other job finished before the unwind"
            );
        }
        assert_eq!(fanout.helpers(), 2);
    }

    /// A table whose topic-estimation pass can panic with [`Boom`] or run
    /// slowly, counting how often that pass finished.
    struct Probe<'a> {
        table: Table,
        panics: bool,
        finished: &'a AtomicUsize,
    }

    impl TableCells for Probe<'_> {
        type Cells<'c>
            = &'c Column
        where
            Self: 'c;

        fn table_id(&self) -> u64 {
            self.table.id
        }

        fn cell_columns(&self) -> usize {
            self.table.columns.len()
        }

        fn cells(&self, c: usize) -> &Column {
            &self.table.columns[c]
        }

        fn gold_labels(&self) -> &[SemanticType] {
            &[]
        }

        fn for_each_cell(&self, f: impl FnMut(&str)) {
            if self.panics {
                std::panic::panic_any(Boom(self.table.id));
            }
            std::thread::sleep(Duration::from_millis(20));
            self.table.for_each_value(f);
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A panicking table fails its batch with the original payload, but
    /// only after the batch's other tables were filled (whichever worker
    /// took them); the same scratch then serves the next batch exactly.
    #[test]
    fn fanout_resumes_a_table_panic_after_the_batch_finished() {
        let predictor = predictor(SamplerKind::Dense);
        let pool = default_corpus(6, 83).tables;
        let mut scratch = ServingScratch::new().with_fill_width(2);
        for panicking in [0u64, 2, 3] {
            let finished = AtomicUsize::new(0);
            let batch: Vec<Probe> = (0..4u64)
                .map(|i| Probe {
                    table: Table {
                        id: 900 + i,
                        ..pool[i as usize].clone()
                    },
                    panics: i == panicking,
                    finished: &finished,
                })
                .collect();
            let refs: Vec<&Probe> = batch.iter().collect();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                predictor.predict_batch(&refs, &mut scratch)
            }))
            .expect_err("a panicking table must panic the batch");
            assert_eq!(
                payload.downcast_ref::<Boom>(),
                Some(&Boom(900 + panicking)),
                "table {panicking}: the original payload resumes"
            );
            assert_eq!(
                finished.load(Ordering::SeqCst),
                3,
                "table {panicking}: the other tables were filled before the unwind"
            );
            assert_eq!(scratch.fill_helpers(), 1);

            let tables = pool[3..].to_vec();
            let refs: Vec<&Table> = tables.iter().collect();
            assert_eq!(
                predictor.predict_batch(&refs, &mut scratch),
                predictor.predict_corpus(&Corpus::new(tables.clone())),
                "table {panicking}: the scratch serves on after the panic"
            );
        }
    }

    /// One scratch runs thousands of fanned-out batches without a stall
    /// (a lost wake-up would hang this test), and every answer is exact.
    #[test]
    fn fanout_runs_thousands_of_batches_on_one_scratch() {
        let predictor = predictor(SamplerKind::Dense);
        let tables: Vec<Table> = (0..3)
            .map(|i| {
                Table::unlabelled(
                    i,
                    vec![Column::new(["Oslo", "Lima"][..i as usize % 2 + 1].to_vec())],
                )
            })
            .collect();
        let want = predictor.predict_corpus(&Corpus::new(tables.clone()));
        let mut scratch = ServingScratch::new().with_fill_width(3);
        for round in 0..3000 {
            let n = 2 + round % 2;
            let batch: Vec<&Table> = tables[..n].iter().collect();
            assert_eq!(
                predictor.predict_batch(&batch, &mut scratch),
                want[..n],
                "round {round}"
            );
        }
        assert_eq!(scratch.fill_helpers(), 2);
    }

    /// Models without topics and single-table batches never start a
    /// helper, whatever the width.
    #[test]
    fn fanout_skips_single_tables_and_models_without_topics() {
        let corpus = default_corpus(20, 29);
        let notopic =
            SatoModel::train(&corpus, tiny_config(), SatoVariant::SatoNoTopic).into_predictor();
        let full = predictor(SamplerKind::Dense);
        let batch: Vec<&Table> = corpus.tables.iter().take(5).collect();
        let mut scratch = ServingScratch::new().with_fill_width(4);
        notopic.predict_batch(&batch, &mut scratch);
        full.predict_batch(&batch[..1], &mut scratch);
        assert_eq!(scratch.fill_helpers(), 0);
        full.predict_batch(&batch, &mut scratch);
        assert_eq!(scratch.fill_helpers(), 3);
    }
}
