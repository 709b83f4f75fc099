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

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use dram_sim::MemoryController;

use crate::core::{Access, CoreEngine, Front, Served, Writebacks};
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
fn encode_next(front: &mut Front, words: &mut Vec<u64>) {
    words.clear();
    words.extend([0, 0]);
    let (gap, dependent, access) = front.produce(&mut Encoder(words));
    words[0] += encode_issue(gap, dependent);
    words[1] = encode_access(&access);
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
        let (gap, dependent, writebacks) = decode_issue(self.pop(pipe, ring));
        let access = decode_access(self.pop(pipe, ring));
        let blocks = (0..writebacks).map(|_| self.pop(pipe, ring));
        core.execute((gap, dependent, access), blocks, llc, dram, None);
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
