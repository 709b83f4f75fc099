//! The record feed from the cores' front ends to the back end.
//!
//! A front end's output is a pure function of its trace seed, so it can run
//! ahead of the back end on another thread without changing a result.
//! [`Pipe::fill`] runs every core's [`Front`] on one helper thread and
//! writes each resolved record into that core's [`Ring`]; the drive loop
//! reads it back with a [`Reader`] in whatever order the cores' cycles
//! dictate. A record is a header word (gap, dependent flag, writeback
//! count), an access word (address, write flag, serving level), then one
//! word per LLC writeback.
//!
//! [`CpuClaim`] decides whether a run may have a helper at all: running
//! simulations plus their helpers never exceed the process's available
//! parallelism.
//!
//! The same words can also go to a file. A [`FrontRecorder`] writes every
//! record a run's front ends produce to one unnamed file, unlinked as soon
//! as it is made, and finishes into a [`FrontRecording`]: the file lives
//! as long as that and its replays hold it, however the process ends. A
//! later run whose [`FrontKey`] is equal reads it back through a
//! [`FrontReplay`] instead of running its own trace generators and L1/L2.
//! Each core's stream is chunks of up to [`RING_WORDS`] words, each led by
//! its word count and followed by a word-wise FNV-1a checksum of both; the
//! recording keeps the key and where each core's chunks start.
//! A replayed core whose stream ends, or whose next chunk fails to read or
//! check, fast-forwards its own front end past the records already
//! replayed and runs inline from there, so a bad file costs time, never a
//! wrong result.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use dram_sim::MemoryController;

use crate::core::{Access, CoreEngine, Front, FrontKey, Served, Writebacks};
use crate::llc::SharedLlc;

/// Words per core ring (8 KiB).
pub(crate) const RING_WORDS: usize = 1024;

/// Stack of the helper thread: the front ends recurse only a few frames.
pub(crate) const HELPER_STACK: usize = 256 * 1024;

/// Waits that spin before they start yielding the CPU.
const SPINS: u32 = 64;

/// Producer words between two publications of a ring's tail.
const PUBLISH_WORDS: usize = 64;

const SERVED_SHIFT: u32 = 56;
const WRITE_BIT: u64 = 1 << 58;
const ADDR_MASK: u64 = (1 << SERVED_SHIFT) - 1;
const DEPENDENT_BIT: u64 = 1 << 32;
const WRITEBACK_ONE: u64 = 1 << 33;

/// The header word of a record: its gap, the dependent flag and (added
/// as they come) the writeback count.
fn encode_issue(gap: u32, dependent: bool) -> u64 {
    u64::from(gap) | if dependent { DEPENDENT_BIT } else { 0 }
}

fn decode_issue(word: u64) -> (u32, bool, u64) {
    (word as u32, word & DEPENDENT_BIT != 0, word / WRITEBACK_ONE)
}

fn encode_access(a: &Access) -> u64 {
    debug_assert!(a.addr <= ADDR_MASK, "block address {:#x} too wide", a.addr);
    let served = match a.served {
        Served::L1 => 0,
        Served::L2 => 1,
        Served::Llc => 2,
    };
    a.addr | served << SERVED_SHIFT | if a.write { WRITE_BIT } else { 0 }
}

fn decode_access(word: u64) -> Access {
    let served = match (word >> SERVED_SHIFT) & 3 {
        0 => Served::L1,
        1 => Served::L2,
        _ => Served::Llc,
    };
    Access {
        addr: word & ADDR_MASK,
        write: word & WRITE_BIT != 0,
        served,
    }
}

/// Appends a record's writebacks to its words, counting them in the
/// header word.
struct Encoder<'a>(&'a mut Vec<u64>);

impl Writebacks for Encoder<'_> {
    fn writeback(&mut self, block: u64) {
        self.0[0] += WRITEBACK_ONE;
        self.0.push(block);
    }
}

/// Replaces `words` with `front`'s next record.
pub(crate) fn encode_next(front: &mut Front, words: &mut Vec<u64>) {
    words.clear();
    words.extend([0, 0]);
    let (gap, dependent, access) = front.produce(&mut Encoder(words));
    words[0] += encode_issue(gap, dependent);
    words[1] = encode_access(&access);
}

/// Executes one record on `core`, taking its words in order from `next`:
/// the decode step of every feed that carries records as words.
#[inline]
fn execute_words(
    mut next: impl FnMut() -> u64,
    core: &mut CoreEngine,
    llc: &mut SharedLlc,
    dram: &mut MemoryController,
) {
    let (gap, dependent, writebacks) = decode_issue(next());
    let access = decode_access(next());
    let blocks = (0..writebacks).map(|_| next());
    core.execute((gap, dependent, access), blocks, llc, dram, None);
}

/// Spins briefly, then yields: the other side is usually a few hundred
/// nanoseconds away, but may also have lost its CPU.
fn backoff(idle: &mut u32) {
    if *idle < SPINS {
        *idle += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

#[repr(align(64))]
struct Padded(AtomicUsize);

/// A bounded single-producer single-consumer ring of words. `head` and
/// `tail` count words taken and published since the start; each side
/// publishes its count in batches and rereads the other's only when its
/// cached copy says the ring is full (producer) or empty (consumer).
///
/// Slots are stored and loaded `Relaxed`. The producer's `Release` store
/// of `tail` pairs with the consumer's `Acquire` load of it, so a slot's
/// word is written before it is read; the consumer's `Release` store of
/// `head` pairs with the producer's `Acquire` load, so a slot is read
/// before it is overwritten.
struct Ring {
    slots: Box<[AtomicU64]>,
    head: Padded,
    tail: Padded,
}

/// Every core's ring, plus the flag either side raises when it stops.
pub(crate) struct Pipe {
    rings: Box<[Ring]>,
    closed: AtomicBool,
}

/// Closes the pipe when dropped, so the other side stops waiting.
pub(crate) struct Closer<'a>(&'a Pipe);

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Release);
    }
}

impl Pipe {
    /// Rings of `words` words each for `cores` cores.
    pub(crate) fn new(cores: usize, words: usize) -> Pipe {
        assert!(words > 0, "a ring holds at least one word");
        let ring = |_| Ring {
            slots: (0..words).map(|_| AtomicU64::new(0)).collect(),
            head: Padded(AtomicUsize::new(0)),
            tail: Padded(AtomicUsize::new(0)),
        };
        Pipe {
            rings: (0..cores).map(ring).collect(),
            closed: AtomicBool::new(false),
        }
    }

    /// A guard that closes the pipe when dropped, including by a panic.
    pub(crate) fn closer(&self) -> Closer<'_> {
        Closer(self)
    }

    /// The helper thread's loop: keeps every ring as full as the consumer
    /// allows, until the pipe closes.
    pub(crate) fn fill(&self, fronts: &mut [Front], writers: &mut [Writer]) {
        let _closer = self.closer();
        let mut idle = 0;
        while !self.closed.load(Ordering::Acquire) {
            let mut moved = false;
            for ((front, w), ring) in fronts.iter_mut().zip(writers.iter_mut()).zip(&*self.rings) {
                moved |= w.fill(front, ring);
            }
            if moved {
                idle = 0;
            } else {
                backoff(&mut idle);
            }
        }
    }
}

/// The producer's end of one ring, with the record it has yet to push.
#[derive(Debug)]
pub(crate) struct Writer {
    tail: usize,
    slot: usize,
    head_seen: usize,
    published: usize,
    pending: Vec<u64>,
    sent: usize,
}

impl Writer {
    /// A writer for `front`, its record buffer sized for the longest
    /// record so that encoding never grows it.
    pub(crate) fn new(front: &Front) -> Writer {
        Writer {
            tail: 0,
            slot: 0,
            head_seen: 0,
            published: 0,
            pending: Vec::with_capacity(2 + front.max_writebacks()),
            sent: 0,
        }
    }

    /// Produces records into `ring` until it is full. Returns whether any
    /// word moved.
    fn fill(&mut self, front: &mut Front, ring: &Ring) -> bool {
        let cap = ring.slots.len();
        let start = self.tail;
        loop {
            if self.sent == self.pending.len() {
                encode_next(front, &mut self.pending);
                self.sent = 0;
            }
            while self.sent < self.pending.len() {
                if self.tail - self.head_seen == cap {
                    self.head_seen = ring.head.0.load(Ordering::Acquire);
                    if self.tail - self.head_seen == cap {
                        if self.published != self.tail {
                            self.published = self.tail;
                            ring.tail.0.store(self.tail, Ordering::Release);
                        }
                        return self.tail != start;
                    }
                }
                ring.slots[self.slot].store(self.pending[self.sent], Ordering::Relaxed);
                self.sent += 1;
                self.tail += 1;
                self.slot += 1;
                if self.slot == cap {
                    self.slot = 0;
                }
                if self.tail - self.published >= PUBLISH_WORDS {
                    self.published = self.tail;
                    ring.tail.0.store(self.tail, Ordering::Release);
                }
            }
        }
    }
}

/// The consumer's end of one ring.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reader {
    head: usize,
    slot: usize,
    tail_seen: usize,
    published: usize,
}

impl Reader {
    /// Executes ring `i`'s next record on `core`, the back end of that
    /// ring's front end.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty and the producer has stopped.
    pub(crate) fn replay(
        &mut self,
        pipe: &Pipe,
        i: usize,
        core: &mut CoreEngine,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
    ) {
        let ring = &pipe.rings[i];
        execute_words(|| self.pop(pipe, ring), core, llc, dram);
        if self.head - self.published >= ring.slots.len() / 4 {
            self.publish(ring);
        }
    }

    #[inline]
    fn pop(&mut self, pipe: &Pipe, ring: &Ring) -> u64 {
        if self.head == self.tail_seen {
            self.wait(pipe, ring);
        }
        let word = ring.slots[self.slot].load(Ordering::Relaxed);
        self.head += 1;
        self.slot += 1;
        if self.slot == ring.slots.len() {
            self.slot = 0;
        }
        word
    }

    fn publish(&mut self, ring: &Ring) {
        self.published = self.head;
        ring.head.0.store(self.head, Ordering::Release);
    }

    #[cold]
    fn wait(&mut self, pipe: &Pipe, ring: &Ring) {
        // Hand back every word taken, so a producer facing a full ring
        // sees room.
        self.publish(ring);
        let mut idle = 0;
        loop {
            self.tail_seen = ring.tail.0.load(Ordering::Acquire);
            if self.tail_seen != self.head {
                return;
            }
            assert!(
                !pipe.closed.load(Ordering::Acquire),
                "the trace front-end thread stopped"
            );
            backoff(&mut idle);
        }
    }
}

/// Bytes of a stream chunk: the word count, up to [`RING_WORDS`] words and
/// the checksum.
const CHUNK_BYTES: usize = 8 * (RING_WORDS + 2);

/// FNV-1a over a chunk's little-endian words instead of its bytes: one
/// multiply per word, not eight. Byte-wise `fnv1a64` took about 7% of a
/// replaying run. Any one changed word still changes the sum, since each
/// step maps the running hash one-to-one.
fn chunk_sum(chunk: &[u8]) -> u64 {
    chunk
        .chunks_exact(8)
        .fold(0xcbf2_9ce4_8422_2325, |h, word| {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte words"));
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Numbers the names [`unnamed_file`] makes in this process.
static STREAM_SEQ: AtomicU64 = AtomicU64::new(0);

/// A new file in `dir` that no name reaches: made under a fresh `.tmp-`
/// name and unlinked at once, so it lives only as long as its open
/// handles. Only a crash between the two calls leaves the name, which is
/// one a result store's temp-file scavenger collects. Outside unix an open
/// file cannot lose its name, so nothing is recorded and every run keeps
/// its own front ends.
pub(crate) fn unnamed_file(dir: &Path) -> io::Result<File> {
    if cfg!(not(unix)) {
        return Err(io::ErrorKind::Unsupported.into());
    }
    let path = dir.join(format!(
        ".tmp-front-{}-{}",
        std::process::id(),
        STREAM_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let file = File::options()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    std::fs::remove_file(&path)?;
    Ok(file)
}

/// One core's stream being written: the chunk being filled and where its
/// written chunks start in the recording's file.
#[derive(Debug)]
struct StreamWriter {
    /// A placeholder for the chunk's word count, then its words.
    chunk: Vec<u8>,
    offsets: Vec<u64>,
}

impl StreamWriter {
    fn new() -> StreamWriter {
        let mut chunk = Vec::with_capacity(CHUNK_BYTES);
        chunk.extend_from_slice(&[0; 8]);
        StreamWriter {
            chunk,
            offsets: Vec::new(),
        }
    }

    fn push(&mut self, word: u64, file: &mut File) -> io::Result<()> {
        self.chunk.extend_from_slice(&word.to_le_bytes());
        if self.chunk.len() == CHUNK_BYTES - 8 {
            self.flush(file)?;
        }
        Ok(())
    }

    /// Appends the words pushed since the last flush as one chunk.
    fn flush(&mut self, file: &mut File) -> io::Result<()> {
        let words = self.chunk.len() / 8 - 1;
        if words == 0 {
            return Ok(());
        }
        self.chunk[..8].copy_from_slice(&(words as u64).to_le_bytes());
        let sum = chunk_sum(&self.chunk);
        self.chunk.extend_from_slice(&sum.to_le_bytes());
        let written = file.stream_position().and_then(|at| {
            self.offsets.push(at);
            file.write_all(&self.chunk)
        });
        self.chunk.truncate(8);
        written
    }
}

/// Reads one core's recorded words back, a checked chunk at a time.
#[derive(Debug)]
struct StreamReader {
    recording: Arc<FrontRecording>,
    core: usize,
    /// Index of the core's next chunk.
    next: usize,
    chunk: Vec<u8>,
    /// Byte offsets of the next unread word and of the end of the chunk's
    /// words.
    pos: usize,
    end: usize,
}

impl StreamReader {
    fn new(recording: Arc<FrontRecording>, core: usize) -> StreamReader {
        StreamReader {
            recording,
            core,
            next: 0,
            chunk: vec![0; CHUNK_BYTES],
            pos: 0,
            end: 0,
        }
    }

    /// The next word, or `None` at the end of the stream, on a read error
    /// or at a chunk whose count or checksum is wrong.
    fn word(&mut self) -> Option<u64> {
        if self.pos == self.end {
            self.refill()?;
        }
        let word = u64::from_le_bytes(self.chunk[self.pos..self.pos + 8].try_into().ok()?);
        self.pos += 8;
        Some(word)
    }

    fn refill(&mut self) -> Option<()> {
        let offset = *self.recording.chunks[self.core].get(self.next)?;
        // Replays on other threads share the file and its cursor; the
        // lock keeps each seek with its reads.
        let mut file = self.recording.file.lock().ok()?;
        file.seek(SeekFrom::Start(offset)).ok()?;
        file.read_exact(&mut self.chunk[..8]).ok()?;
        let words = u64::from_le_bytes(self.chunk[..8].try_into().ok()?);
        let words = usize::try_from(words)
            .ok()
            .filter(|n| (1..=RING_WORDS).contains(n))?;
        let end = 8 * (words + 1);
        file.read_exact(&mut self.chunk[8..end + 8]).ok()?;
        drop(file);
        let sum = u64::from_le_bytes(self.chunk[end..end + 8].try_into().ok()?);
        if chunk_sum(&self.chunk[..end]) != sum {
            return None;
        }
        self.next += 1;
        self.pos = 8;
        self.end = end;
        Some(())
    }

    /// Replaces `words` with the next whole record. `false` if the stream
    /// cannot supply one with at most `max_writebacks` writebacks.
    fn record(&mut self, words: &mut Vec<u64>, max_writebacks: usize) -> bool {
        words.clear();
        let Some(issue) = self.word() else {
            return false;
        };
        let writebacks = decode_issue(issue).2;
        if writebacks > max_writebacks as u64 {
            return false;
        }
        words.push(issue);
        for _ in 0..=writebacks {
            match self.word() {
                Some(word) => words.push(word),
                None => return false,
            }
        }
        true
    }
}

/// Writes every record a run's front ends produce to one unnamed file,
/// for later runs with the same [`FrontKey`] to replay.
#[derive(Debug)]
pub struct FrontRecorder {
    key: FrontKey,
    file: File,
    streams: Vec<StreamWriter>,
    /// Records written per core.
    records: Vec<u64>,
    /// The record being written.
    words: Vec<u64>,
    /// The first write error; nothing is written after it.
    error: Option<io::Error>,
    /// Whether a run fed from its first record to its end.
    complete: bool,
}

impl FrontRecorder {
    /// Creates an unnamed file for the front ends of `key` in the
    /// existing directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the file; `Unsupported` outside unix.
    pub fn create(dir: &Path, key: &FrontKey) -> io::Result<FrontRecorder> {
        Ok(FrontRecorder {
            key: key.clone(),
            file: unnamed_file(dir)?,
            streams: (0..key.cores()).map(|_| StreamWriter::new()).collect(),
            records: vec![0; key.cores()],
            words: Vec::new(),
            error: None,
            complete: false,
        })
    }

    /// Produces core `i`'s next record on `front`, writes its words, and
    /// executes it on `core`.
    pub(crate) fn step(
        &mut self,
        i: usize,
        front: &mut Front,
        core: &mut CoreEngine,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
    ) {
        self.write_next(i, front);
        let mut words = self.words.iter().copied();
        execute_words(
            || words.next().expect("an encoded record is whole"),
            core,
            llc,
            dram,
        );
    }

    /// Produces core `i`'s next record on `front` into `words` and writes
    /// it to the core's stream.
    fn write_next(&mut self, i: usize, front: &mut Front) {
        encode_next(front, &mut self.words);
        self.records[i] += 1;
        if self.error.is_none() {
            let (stream, file) = (&mut self.streams[i], &mut self.file);
            if let Err(e) = self.words.iter().try_for_each(|&w| stream.push(w, file)) {
                self.error = Some(e);
            }
        }
    }

    /// Marks the recording as covering a whole run whose front ends are
    /// `fronts`. With several cores, each stream first grows by a
    /// sixteenth: a replaying run's cores keep running until the slowest
    /// finishes, and at other relative speeds a core may read past where
    /// this run stopped it, then fast-forward its front end through the
    /// whole stream.
    pub(crate) fn complete(&mut self, fronts: &mut [Front]) {
        if fronts.len() > 1 {
            for (i, front) in fronts.iter_mut().enumerate() {
                for _ in 0..self.records[i] / 16 {
                    self.write_next(i, front);
                }
            }
        }
        self.complete = true;
    }

    /// Writes the last chunks and hands the file over for replay.
    ///
    /// # Errors
    ///
    /// Fails if a write failed, or if no run fed this recorder from its
    /// first record to its end (it ran the shadow-memory check or had
    /// another key): such streams must not be replayed.
    pub fn finish(mut self) -> io::Result<FrontRecording> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        if !self.complete {
            return Err(io::Error::other("the recording does not cover a whole run"));
        }
        for stream in &mut self.streams {
            stream.flush(&mut self.file)?;
        }
        Ok(FrontRecording {
            key: self.key,
            file: Mutex::new(self.file),
            chunks: self.streams.into_iter().map(|s| s.offsets).collect(),
        })
    }
}

/// A finished recording: the front key, the unnamed file that holds
/// every core's chunks, and where each core's chunks start in it. The
/// file is freed when this is dropped, with every replay sharing it.
#[derive(Debug)]
pub struct FrontRecording {
    pub(crate) key: FrontKey,
    pub(crate) file: Mutex<File>,
    /// Per core, the byte offset of each chunk in stream order.
    pub(crate) chunks: Vec<Vec<u64>>,
}

/// Feeds a run from a [`FrontRecording`]. Each core's front
/// end stays where it was built until something needs it: the end of its
/// stream, or a chunk that fails to read or check. Then it is
/// fast-forwarded past the records replayed so far, and that core runs
/// inline.
#[derive(Debug)]
pub struct FrontReplay {
    key: FrontKey,
    /// Each core's stream; `None` once the core runs inline.
    streams: Vec<Option<StreamReader>>,
    /// Records replayed per core.
    replayed: Vec<u64>,
    /// The record being replayed.
    words: Vec<u64>,
    /// Writebacks of an inline record.
    writebacks: Vec<u64>,
}

impl FrontReplay {
    /// A replay of `recording`, which any number of replays may share.
    #[must_use]
    pub fn new(recording: &Arc<FrontRecording>) -> FrontReplay {
        let cores = recording.chunks.len();
        FrontReplay {
            key: recording.key.clone(),
            streams: (0..cores)
                .map(|i| Some(StreamReader::new(Arc::clone(recording), i)))
                .collect(),
            replayed: vec![0; cores],
            words: Vec::new(),
            writebacks: Vec::new(),
        }
    }

    /// Records replayed from the streams so far, over all cores.
    #[must_use]
    pub fn records_replayed(&self) -> u64 {
        self.replayed.iter().sum()
    }

    /// Executes core `i`'s next record on `core`: replayed from its stream
    /// while the stream supplies one, produced by `front` after that.
    pub(crate) fn step(
        &mut self,
        i: usize,
        front: &mut Front,
        core: &mut CoreEngine,
        llc: &mut SharedLlc,
        dram: &mut MemoryController,
    ) {
        if let Some(stream) = &mut self.streams[i] {
            if stream.record(&mut self.words, front.max_writebacks()) {
                self.replayed[i] += 1;
                let mut words = self.words.iter().copied();
                execute_words(
                    || words.next().expect("a checked record is whole"),
                    core,
                    llc,
                    dram,
                );
                return;
            }
            self.detach(i, front);
        }
        let record = front.produce(&mut self.writebacks);
        core.execute(record, self.writebacks.drain(..), llc, dram, None);
    }

    /// Brings core `i`'s front end to the records replayed so far; the
    /// core runs inline from then on.
    fn detach(&mut self, i: usize, front: &mut Front) {
        if self.streams[i].take().is_some() {
            front.skip(self.replayed[i]);
        }
    }
}

/// A run's recorded front-end streams: written as it runs, or read in
/// place of its front ends.
#[derive(Debug)]
pub enum FrontStreams {
    /// Streams the run writes.
    Record(FrontRecorder),
    /// Streams the run reads.
    Replay(FrontReplay),
}

impl FrontStreams {
    pub(crate) fn key(&self) -> &FrontKey {
        match self {
            FrontStreams::Record(r) => &r.key,
            FrontStreams::Replay(r) => &r.key,
        }
    }
}

/// Simulation threads running in this process, plus their helpers. A
/// count that publishes no other data, so `Relaxed`.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// The process's available parallelism, read once.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Takes one more thread in `busy` if that keeps it within `cpus`.
fn try_take(busy: &AtomicUsize, cpus: usize) -> bool {
    busy.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
        (n < cpus).then_some(n + 1)
    })
    .is_ok()
}

/// The threads a simulation counts in the process: its own, plus a
/// helper's when there was a CPU to spare. Released on drop.
#[derive(Debug)]
pub(crate) struct CpuClaim {
    threads: usize,
}

impl CpuClaim {
    /// Counts the calling thread's simulation.
    pub(crate) fn simulation() -> CpuClaim {
        BUSY.fetch_add(1, Ordering::Relaxed);
        CpuClaim { threads: 1 }
    }

    /// Claims a CPU for a helper thread, if the process has one to spare.
    pub(crate) fn helper(&mut self) -> bool {
        let taken = try_take(&BUSY, cpus());
        self.threads += usize::from(taken);
        taken
    }
}

impl Drop for CpuClaim {
    fn drop(&mut self) {
        BUSY.fetch_sub(self.threads, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        for (gap, dependent) in [(0, false), (u32::MAX, true)] {
            let mut issue = encode_issue(gap, dependent);
            issue += 7 * WRITEBACK_ONE;
            assert_eq!(decode_issue(issue), (gap, dependent, 7));
        }
        for served in [Served::L1, Served::L2, Served::Llc] {
            for write in [false, true] {
                let a = Access {
                    addr: (1 << 40) - 3,
                    write,
                    served,
                };
                assert_eq!(decode_access(encode_access(&a)), a);
            }
        }
    }

    #[test]
    fn chunk_sums_catch_every_flipped_byte() {
        let chunk: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
        let sum = chunk_sum(&chunk);
        for i in 0..chunk.len() {
            for bit in 0..8 {
                let mut flipped = chunk.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(chunk_sum(&flipped), sum, "byte {i}, bit {bit}");
            }
        }
    }

    #[test]
    fn helpers_never_take_the_last_cpu_twice() {
        let busy = AtomicUsize::new(1);
        assert!(
            try_take(&busy, 2),
            "one simulation on two CPUs gets a helper"
        );
        assert!(!try_take(&busy, 2), "no third thread on two CPUs");
        assert_eq!(busy.load(Ordering::Relaxed), 2);
        let busy = AtomicUsize::new(1);
        assert!(!try_take(&busy, 1), "one CPU has none to spare");
    }
}
