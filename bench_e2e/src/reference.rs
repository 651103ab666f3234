//! The speed reference: a fixed piece of benchmark-owned work, run on the
//! client thread between ops, that tells how fast *this machine* is
//! *right now*.
//!
//! The benchmark runs on a few cores of a shared host. Its co-tenants
//! slow the machine down by 10–60 %, for anything from a fraction of a
//! second to an hour, which no estimator inside a run can see past. But
//! what slows the program slows code of the same kind beside it by about
//! the same factor. So every op is paired with the reference samples
//! taken around it, and its time is divided by how much slower than
//! nominal they ran ([`Speed::slowdown`]): the time metrics read
//! "milliseconds on a machine that runs the reference at its nominal
//! speed", the seed machine in a quiet hour. A change to the program
//! moves them in full; a change of the machine's speed cancels.
//!
//! One sample is two halves, timed separately, because the machine has
//! (at least) two speeds that move independently:
//!
//! * **user half** — user-space work, the diet of the engine, registry
//!   and JSON layers: 256 `format!`-ed keys inserted into a
//!   `HashMap<String, Vec<u64>>` and the 256 of sixteen rounds ago
//!   removed (hashing, allocation and freeing over a constant population
//!   of 4 096 entries, ~0.5 MB), then 61 440 instructions of a toy
//!   register machine (branches and arithmetic out of the L1 cache);
//! * **kernel half** — the diet of the HTTP edge: a thread spawned and
//!   joined and sixteen bytes echoed over a fresh loopback TCP
//!   connection (`clone`, stack `mmap`, futex hand-offs,
//!   connect/accept/close). It is taken only for workloads that have such
//!   an edge.
//!
//! A workload's slowdown is the blend of the two by its `edge_share`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Keys per round, and how many rounds stay in the map.
const KEYS: u64 = 256;
const ROUNDS_KEPT: u64 = 16;
/// The toy machine's program length, and how often a sample runs it.
const PROGRAM: usize = 4096;
const PASSES: usize = 15;
/// What the kernel half sends itself, and how long it waits for it.
const SENT: &[u8; 16] = b"0123456789abcdef";
const ECHO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the two halves of one sample took, in nanoseconds.
/// `kernel_ns` is 0 when the kernel half was not asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub user_ns: u64,
    pub kernel_ns: u64,
}

/// What the machine is compared to: the reference's medians on the seed
/// commit's machine in a quiet hour, in the place the samples are taken
/// (what ran just before a sample decides what it finds in the caches),
/// and how the two halves are blended. Frozen calibration: the nominal
/// times only fix the scale of the corrected figures; `edge_share` is
/// the blend that left same-code runs closest together (see the README).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    pub nominal_user_us: f64,
    pub nominal_kernel_us: f64,
    /// How much of the measured work behaves like the kernel half
    /// (connections, threads, hand-offs) rather than the user half; 0
    /// means the kernel half is not sampled at all.
    pub edge_share: f64,
}

impl Speed {
    /// User-space work with nothing else in the caches: a set-up, timed
    /// between two bursts of back-to-back samples.
    pub const IDLE: Speed = Speed { nominal_user_us: 245.0, nominal_kernel_us: 0.0, edge_share: 0.0 };

    pub fn samples_kernel(&self) -> bool {
        self.edge_share > 0.0
    }

    /// How many times slower than nominal the machine ran, going by
    /// reference halves that took `user_ns` and `kernel_ns`.
    pub fn slowdown(&self, user_ns: f64, kernel_ns: f64) -> f64 {
        let user = user_ns / 1e3 / self.nominal_user_us;
        if !self.samples_kernel() {
            return user;
        }
        (1.0 - self.edge_share) * user + self.edge_share * kernel_ns / 1e3 / self.nominal_kernel_us
    }
}

pub struct Reference {
    map: HashMap<String, Vec<u64>>,
    round: u64,
    program: Vec<u8>,
    registers: [i64; 16],
    listener: TcpListener,
}

impl Reference {
    /// A reference at its steady population (so the first timed sample
    /// does the same work as every later one).
    pub fn new() -> Reference {
        let mut reference = Reference {
            map: HashMap::with_capacity(2 * (KEYS * ROUNDS_KEPT) as usize),
            round: 0,
            // Eight opcodes in a fixed scramble (Knuth's multiplicative hash).
            program: (0..PROGRAM as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8).collect(),
            registers: [0; 16],
            listener: TcpListener::bind("127.0.0.1:0").expect("bind a loopback port"),
        };
        for _ in 0..2 * ROUNDS_KEPT {
            reference.sample(true);
        }
        reference
    }

    /// Do one sample's work and say how long each half took.
    pub fn sample(&mut self, kernel: bool) -> Sample {
        let t0 = Instant::now();
        self.churn();
        self.interpret();
        let user_ns = t0.elapsed().as_nanos() as u64;
        if !kernel {
            return Sample { user_ns, kernel_ns: 0 };
        }
        let t1 = Instant::now();
        self.echo();
        Sample { user_ns, kernel_ns: t1.elapsed().as_nanos() as u64 }
    }

    fn churn(&mut self) {
        self.round += 1;
        for i in 0..KEYS {
            self.map.insert(format!("k-{}-{i}", self.round), vec![i; 3]);
        }
        if self.round > ROUNDS_KEPT {
            for i in 0..KEYS {
                let gone = self.map.remove(&format!("k-{}-{i}", self.round - ROUNDS_KEPT));
                assert_eq!(gone.expect("a key of sixteen rounds ago")[0], i);
            }
        }
    }

    fn interpret(&mut self) {
        let r = &mut self.registers;
        let mut acc = r[0];
        let mut top = 0usize;
        for _ in 0..PASSES {
            for op in &self.program {
                match op {
                    0 => {
                        r[top & 15] = acc;
                        top += 1;
                    }
                    1 => {
                        top = top.wrapping_sub(1);
                        acc = acc.wrapping_add(r[top & 15]);
                    }
                    2 => acc = acc.wrapping_mul(31).wrapping_add(7),
                    3 => acc ^= acc >> 3,
                    4 if acc & 1 == 0 => acc = acc.wrapping_add(1),
                    4 => acc = acc.wrapping_sub(3),
                    5 => acc = acc.rotate_left(5),
                    6 => r[(acc as usize) & 15] = acc,
                    _ => acc = acc.wrapping_add(r[(acc as usize >> 4) & 15]),
                }
            }
        }
        // Carried into the next sample: the work cannot be optimised away.
        r[0] = acc;
    }

    /// The client connects and sends *before* the echo thread exists (the
    /// listener's backlog holds the connection), so a refused connect is a
    /// panic on this thread, never a thread left waiting in `accept`.
    fn echo(&mut self) {
        let addr = self.listener.local_addr().expect("a bound listener");
        let mut client = TcpStream::connect(addr).expect("connect to the reference's own listener");
        client.set_read_timeout(Some(ECHO_TIMEOUT)).expect("a non-zero timeout");
        client.write_all(SENT).expect("send sixteen bytes");
        let listener = &self.listener;
        let mut back = [0u8; 16];
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let (mut peer, _) = listener.accept().expect("accept the reference's own connection");
                let mut got = [0u8; 16];
                peer.read_exact(&mut got).expect("read sixteen bytes");
                peer.write_all(&got).expect("echo them");
            });
            client.read_exact(&mut back).expect("read the echo");
            server.join().expect("the echo thread does not panic");
        });
        assert_eq!(&back, SENT, "the echo came back changed");
    }

    /// Median user half of `n` back-to-back samples, in nanoseconds: the
    /// machine's speed around a one-off interval such as a set-up.
    pub fn median_user_ns(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n).map(|_| self.sample(false).user_ns as f64).collect();
        crate::stats::median(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sample_does_the_same_work_on_a_constant_population() {
        let mut reference = Reference::new();
        let population = reference.map.len();
        assert_eq!(population as u64, KEYS * ROUNDS_KEPT);
        let (round, registers) = (reference.round, reference.registers);
        let both = reference.sample(true);
        assert!(both.user_ns > 0 && both.kernel_ns > 0, "{both:?}");
        assert_eq!((reference.map.len(), reference.round), (population, round + 1));
        assert!(reference.map.contains_key(&format!("k-{}-0", round + 1)));
        assert!(!reference.map.contains_key(&format!("k-{}-0", round + 1 - ROUNDS_KEPT)));
        assert_ne!(reference.registers, registers, "the toy machine ran");
        assert_eq!(reference.sample(false).kernel_ns, 0);
        assert!(reference.median_user_ns(5) > 0.0);
    }

    #[test]
    fn the_toy_machine_is_deterministic() {
        let (mut a, mut b) = (Reference::new(), Reference::new());
        a.sample(false);
        b.sample(false);
        assert_eq!(a.registers, b.registers);
    }

    #[test]
    fn slowdown_blends_the_halves_by_edge_share() {
        let speed = Speed { nominal_user_us: 400.0, nominal_kernel_us: 100.0, edge_share: 0.25 };
        assert_eq!(speed.slowdown(400e3, 100e3), 1.0);
        // User half 1.5x slower, kernel half 3x: 0.75 * 1.5 + 0.25 * 3.
        assert_eq!(speed.slowdown(600e3, 300e3), 1.875);
        let user_only = Speed { edge_share: 0.0, ..speed };
        assert!(!user_only.samples_kernel());
        assert_eq!(user_only.slowdown(600e3, 0.0), 1.5);
    }
}
