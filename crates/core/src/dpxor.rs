//! The `dpXOR` primitive: selector-weighted XOR over a run of records.
//!
//! This is the memory-bound linear scan at the heart of every multi-server
//! PIR query (§2.3, §3.3): for each record `j`, if the selector bit
//! `Eval(k, j)` is set, XOR the record into an accumulator. The paper's
//! whole point is *where* this scan runs — on the CPU (baseline), on a GPU,
//! or in memory on DPUs — but the arithmetic is identical everywhere, so
//! one shared implementation backs the CPU server, the CPU/GPU baselines
//! and the DPU kernel.
//!
//! # One pass, many queries
//!
//! A scan streams the database; a wave of `k` queries need not stream it
//! `k` times. [`ScanKernel::xor_select_many`] takes `k` selectors and `k`
//! accumulators and serves them all from one pass: the CPU server runs
//! every wave through it (§3.4's batching, done by host threads instead of
//! DPU clusters), so the database is read once per wave rather than once
//! per query. Its default is `k` calls of [`ScanKernel::xor_select`] — the
//! oracle a fused override is pinned against. [`UnrolledKernel`]'s
//! override ORs the `k` selector words of each 64-record block and skips
//! the block when none of them selects anything; otherwise it loads each
//! selected record from memory once and XORs it, from cache, into every
//! accumulator whose bit is set.
//!
//! # Kernel dispatch
//!
//! *How* the scan is implemented is a runtime policy, not a compile-time
//! choice: every implementation lives behind the [`ScanKernel`] trait and
//! the backends pick one at startup. Three kernels are registered
//! ([`kernels`]):
//!
//! * [`ScalarKernel`] — the byte-wise reference loop. Every other kernel is
//!   tested byte-identical against it; it is never the fastest.
//! * [`WideKernel`] — the historical 64-bit path: one `u64` XOR per
//!   operation for record sizes that are multiples of 8, falling back to
//!   the scalar loop otherwise. Kept as the regression baseline the
//!   `hotpath` bench compares against.
//! * [`UnrolledKernel`] — the wide multi-word kernel: records up to 64
//!   whole words are scanned with the whole accumulator held in registers
//!   (4–8 `u64` XORs per selector-bit check for the paper's 32–64-byte
//!   records), larger records in unrolled 8-word groups, and record sizes
//!   that are *not* multiples of 8 take the word path for the aligned
//!   prefix plus a packed tail word — odd sizes no longer collapse to the
//!   byte loop. Its multi-selector scan is the fused pass above.
//!
//! All word-level kernels skip all-zero selector words in one branch, so a
//! sparse selector costs ~1 branch per 64 records — on average the scan
//! touches half the records, exactly Algorithm 1's
//! `if v[j] = 1 then t_i ← t_i ⊕ D_d[j]`.
//!
//! [`best_kernel`] picks the fastest kernel for this host by a short
//! self-benchmark on first use (memoised for the process lifetime) after
//! verifying each candidate against the scalar oracle; callers that want a
//! specific kernel override the choice with [`KernelChoice`] (e.g.
//! [`crate::server::cpu::CpuServerConfig::scan_kernel`], or the
//! `IMPIR_SCAN_KERNEL` environment variable for paths that take no config).
//! The convenience entry points [`xor_select_into`] /
//! [`xor_select_into_with`] route through the dispatched kernel, so every
//! backend and baseline inherits the fast path without code changes.

use std::sync::OnceLock;

use impir_dpf::SelectorVector;

/// One implementation of the selector-weighted XOR scan.
///
/// Implementations must be pure: the only observable effect is
/// `accumulator ^= XOR of selected records`, byte-identical to
/// [`ScalarKernel`] for every geometry. `acc_words` is caller-owned scratch
/// (cleared and refilled, keeping capacity) so steady-state scan loops
/// allocate nothing; kernels that need no scratch ignore it.
pub trait ScanKernel: Send + Sync + std::fmt::Debug {
    /// Short stable name (`scalar`, `wide`, `unrolled`) used by config
    /// overrides and bench reports.
    fn name(&self) -> &'static str;

    /// XORs every selected record of `records` into `accumulator`.
    ///
    /// `records` must contain exactly `selector.len()` records of
    /// `record_size` bytes; `accumulator` must be `record_size` bytes long.
    ///
    /// # Panics
    ///
    /// Panics if the slice sizes are inconsistent.
    fn xor_select(
        &self,
        records: &[u8],
        record_size: usize,
        selector: &SelectorVector,
        accumulator: &mut [u8],
        acc_words: &mut Vec<u64>,
    );

    /// `k` scans in one call: XORs the records `selectors[j]` selects into
    /// the `j`-th `record_size`-byte slice of `accumulators`, for every
    /// `j`. The default runs [`ScanKernel::xor_select`] once per selector
    /// and is the oracle an override is pinned against; an override may
    /// read each record once for all `k` selectors.
    ///
    /// # Panics
    ///
    /// Panics if `accumulators` is not `selectors.len() * record_size`
    /// bytes long, or on any shape mismatch [`ScanKernel::xor_select`]
    /// rejects.
    fn xor_select_many(
        &self,
        records: &[u8],
        record_size: usize,
        selectors: &[&SelectorVector],
        accumulators: &mut [u8],
        acc_words: &mut Vec<u64>,
    ) {
        check_many_shapes(record_size, selectors, accumulators);
        for (selector, accumulator) in selectors
            .iter()
            .zip(accumulators.chunks_exact_mut(record_size))
        {
            self.xor_select(records, record_size, selector, accumulator, acc_words);
        }
    }
}

/// The byte-wise reference kernel — the oracle every other kernel is pinned
/// against.
#[derive(Debug, Clone, Copy)]
pub struct ScalarKernel;

impl ScanKernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn xor_select(
        &self,
        records: &[u8],
        record_size: usize,
        selector: &SelectorVector,
        accumulator: &mut [u8],
        _acc_words: &mut Vec<u64>,
    ) {
        xor_select_scalar(records, record_size, selector, accumulator);
    }
}

/// The historical 64-bit path: one `u64` per operation for record sizes
/// that are multiples of 8, byte-wise otherwise. The `hotpath` bench's
/// regression baseline.
#[derive(Debug, Clone, Copy)]
pub struct WideKernel;

impl ScanKernel for WideKernel {
    fn name(&self) -> &'static str {
        "wide"
    }

    fn xor_select(
        &self,
        records: &[u8],
        record_size: usize,
        selector: &SelectorVector,
        accumulator: &mut [u8],
        acc_words: &mut Vec<u64>,
    ) {
        if record_size.is_multiple_of(8) {
            xor_select_wide_with(records, record_size, selector, accumulator, acc_words);
        } else {
            xor_select_scalar(records, record_size, selector, accumulator);
        }
    }
}

/// The unrolled multi-word kernel.
///
/// Records of up to [`MAX_REGISTER_WORDS`] whole words keep the entire
/// accumulator in registers across the whole scan (no accumulator
/// loads/stores per record — the dominant win over [`WideKernel`], which
/// round-trips every accumulator word through memory per record); larger
/// records XOR in unrolled 8-word groups. A record size that is not a
/// multiple of 8 is split into its aligned word prefix plus a ≤7-byte tail
/// packed into one extra `u64`, so odd sizes (33-byte records as much as
/// the paper's 40-byte ones) still take the word path.
#[derive(Debug, Clone, Copy)]
pub struct UnrolledKernel;

/// Largest number of whole 8-byte words per record for which
/// [`UnrolledKernel`] keeps the full accumulator in registers.
pub const MAX_REGISTER_WORDS: usize = 8;

impl ScanKernel for UnrolledKernel {
    fn name(&self) -> &'static str {
        "unrolled"
    }

    fn xor_select(
        &self,
        records: &[u8],
        record_size: usize,
        selector: &SelectorVector,
        accumulator: &mut [u8],
        acc_words: &mut Vec<u64>,
    ) {
        check_shapes(records, record_size, selector, accumulator);
        let words = selector.words();
        match record_size / 8 {
            0 => scan_registers::<0>(records, record_size, words, accumulator),
            1 => scan_registers::<1>(records, record_size, words, accumulator),
            2 => scan_registers::<2>(records, record_size, words, accumulator),
            3 => scan_registers::<3>(records, record_size, words, accumulator),
            4 => scan_registers::<4>(records, record_size, words, accumulator),
            5 => scan_registers::<5>(records, record_size, words, accumulator),
            6 => scan_registers::<6>(records, record_size, words, accumulator),
            7 => scan_registers::<7>(records, record_size, words, accumulator),
            8 => scan_registers::<8>(records, record_size, words, accumulator),
            _ => scan_unrolled_large(records, record_size, selector, accumulator, acc_words),
        }
    }

    /// One pass for all `k` selectors (the fused pass, `scan_fused`); a lone
    /// selector takes the single scan.
    fn xor_select_many(
        &self,
        records: &[u8],
        record_size: usize,
        selectors: &[&SelectorVector],
        accumulators: &mut [u8],
        acc_words: &mut Vec<u64>,
    ) {
        if let [selector] = selectors {
            self.xor_select(records, record_size, selector, accumulators, acc_words);
            return;
        }
        check_many_shapes(record_size, selectors, accumulators);
        for selector in selectors {
            assert_eq!(
                records.len(),
                selector.len() * record_size,
                "records buffer does not match selector length"
            );
        }
        for (group, group_accumulators) in selectors
            .chunks(FUSED_SELECTORS)
            .zip(accumulators.chunks_mut(FUSED_SELECTORS * record_size))
        {
            scan_fused(records, record_size, group, group_accumulators);
        }
    }
}

/// Selectors one fused pass tracks at once (their words for the current
/// 64-record block sit in a stack array); a larger `k` is served in
/// groups of this many.
const FUSED_SELECTORS: usize = 64;

/// Bytes of records a fused pass works through as one group: the group's
/// records are read from memory once, by the first accumulator that takes
/// any of them, and stay cached while the other accumulators take theirs.
/// 256 KiB (eight 32 KiB records) measured best of 128 KiB–2 MiB on a
/// 256 MiB replica: larger groups read more records side by side than the
/// hardware prefetcher follows.
const FUSED_GROUP_BYTES: usize = 256 * 1024;

/// The fused multi-selector scan of up to [`FUSED_SELECTORS`] selectors.
///
/// For each 64-record block the OR of the selectors' words decides
/// whether the block is read at all: 64 records no selector picks cost one
/// branch. A block is worked through in groups of records
/// ([`FUSED_GROUP_BYTES`]); each accumulator XORs in the records its
/// selector picks from the group, held in registers the way
/// [`ScanKernel::xor_select`] holds one accumulator — the whole record
/// for records of up to [`MAX_REGISTER_WORDS`] words, one
/// [`FUSED_TILE_BYTES`] tile at a time for larger ones
/// ([`xor_group_tiled`]). So each selected record is loaded from memory
/// once per wave and then XORed from cache into every accumulator whose
/// selector bit is set.
fn scan_fused(
    records: &[u8],
    record_size: usize,
    selectors: &[&SelectorVector],
    accumulators: &mut [u8],
) {
    debug_assert!(selectors.len() <= FUSED_SELECTORS);
    let registers = register_scan(record_size);
    // A power of two dividing 64, so groups tile the block.
    let group_records = (FUSED_GROUP_BYTES / record_size)
        .clamp(1, 64)
        .next_power_of_two()
        .min(64);
    let group_mask = u64::MAX >> (64 - group_records);
    let mut words = [0u64; FUSED_SELECTORS];
    let words = &mut words[..selectors.len()];
    let mut picks = [0u64; FUSED_SELECTORS];
    let picks = &mut picks[..selectors.len()];
    let blocks = selectors
        .first()
        .map_or(0, |selector| selector.words().len());
    for block in 0..blocks {
        let mut any = 0u64;
        for (word, selector) in words.iter_mut().zip(selectors) {
            *word = selector.words()[block];
            any |= *word;
        }
        if any == 0 {
            continue;
        }
        for group_start in (0..64).step_by(group_records) {
            if (any >> group_start) & group_mask == 0 {
                continue;
            }
            for (pick, word) in picks.iter_mut().zip(words.iter()) {
                *pick = (word >> group_start) & group_mask;
            }
            let first = (block * 64 + group_start) * record_size;
            let group = &records[first..];
            match registers {
                Some(scan) => {
                    for (&pick, accumulator) in
                        picks.iter().zip(accumulators.chunks_exact_mut(record_size))
                    {
                        if pick != 0 {
                            scan(group, record_size, &[pick], accumulator);
                        }
                    }
                }
                None => xor_group_tiled(group, record_size, picks, accumulators),
            }
        }
    }
}

/// Bytes of a record one accumulator holds in registers at a time in
/// [`xor_group_tiled`].
const FUSED_TILE_BYTES: usize = 128;

/// For every accumulator `j` and every set bit `b` of `picks[j]`, XORs
/// record `b` of `records` into accumulator `j`, one
/// [`FUSED_TILE_BYTES`] tile at a time: the group's records' tile stays
/// in L1 while every accumulator takes it, and each accumulator tile
/// stays in registers while its picked records' tiles are XORed in. The
/// sub-tile rest of each record goes through [`xor_in_place`].
fn xor_group_tiled(records: &[u8], record_size: usize, picks: &[u64], accumulators: &mut [u8]) {
    const TILE: usize = FUSED_TILE_BYTES;
    let tiles = record_size / TILE;
    for tile in 0..tiles {
        let offset = tile * TILE;
        for (&pick, accumulator) in picks.iter().zip(accumulators.chunks_exact_mut(record_size)) {
            if pick == 0 {
                continue;
            }
            let acc_tile = &mut accumulator[offset..offset + TILE];
            let mut acc = [0u64; TILE / 8];
            for (word, slot) in acc.iter_mut().enumerate() {
                *slot = load_word(acc_tile, word);
            }
            let mut remaining = pick;
            while remaining != 0 {
                let bit = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let start = bit * record_size + offset;
                let record_tile = &records[start..start + TILE];
                for (word, slot) in acc.iter_mut().enumerate() {
                    *slot ^= load_word(record_tile, word);
                }
            }
            for (word, slot) in acc.iter().enumerate() {
                acc_tile[word * 8..word * 8 + 8].copy_from_slice(&slot.to_le_bytes());
            }
        }
    }
    let rest = tiles * TILE;
    if rest == record_size {
        return;
    }
    for (&pick, accumulator) in picks.iter().zip(accumulators.chunks_exact_mut(record_size)) {
        let mut remaining = pick;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let record = &records[bit * record_size..(bit + 1) * record_size];
            xor_in_place(&mut accumulator[rest..], &record[rest..]);
        }
    }
}

/// A register-resident scan over packed selector words: records of
/// `record_size` bytes, selector words, accumulator.
type RegisterScan = fn(&[u8], usize, &[u64], &mut [u8]);

/// The register-resident scan for `record_size`, if its whole words fit
/// in [`MAX_REGISTER_WORDS`] registers.
fn register_scan(record_size: usize) -> Option<RegisterScan> {
    Some(match record_size / 8 {
        0 => scan_registers::<0>,
        1 => scan_registers::<1>,
        2 => scan_registers::<2>,
        3 => scan_registers::<3>,
        4 => scan_registers::<4>,
        5 => scan_registers::<5>,
        6 => scan_registers::<6>,
        7 => scan_registers::<7>,
        8 => scan_registers::<8>,
        _ => return None,
    })
}

/// Loads up to 7 tail bytes as a little-endian `u64` (upper bytes zero).
#[inline]
fn load_tail(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Stores the low `bytes.len()` bytes of `word` back into `bytes`.
#[inline]
fn store_tail(word: u64, bytes: &mut [u8]) {
    let len = bytes.len();
    bytes.copy_from_slice(&word.to_le_bytes()[..len]);
}

#[inline]
fn load_word(bytes: &[u8], word: usize) -> u64 {
    u64::from_le_bytes(
        bytes[word * 8..word * 8 + 8]
            .try_into()
            .expect("8-byte chunk"),
    )
}

/// Register-resident scan for records of `W` whole words plus an optional
/// tail: the accumulator never leaves registers between records, so each
/// selector-bit check costs `W` loads + `W` XORs and nothing else. Bit `b`
/// of `selector_words[i]` selects record `64 i + b` of `records`.
// Always inlined: called out of line (it is shared with the fused pass),
// the single scan measured ~10 % slower in the `hotpath` bin.
#[inline(always)]
fn scan_registers<const W: usize>(
    records: &[u8],
    record_size: usize,
    selector_words: &[u64],
    accumulator: &mut [u8],
) {
    debug_assert_eq!(record_size / 8, W);
    let tail = record_size - W * 8;
    let mut acc = [0u64; W];
    for (word, slot) in acc.iter_mut().enumerate() {
        *slot = load_word(accumulator, word);
    }
    let mut acc_tail = load_tail(&accumulator[W * 8..]);

    for (word_index, &selector_word) in selector_words.iter().enumerate() {
        // All-zero selector words — 64 unselected records — cost one branch.
        if selector_word == 0 {
            continue;
        }
        let mut remaining = selector_word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let start = (word_index * 64 + bit) * record_size;
            let record = &records[start..start + record_size];
            // Fixed-length word region, so the per-word loads bounds-check
            // against the constant `W * 8` and fold away.
            let word_bytes = &record[..W * 8];
            for (word, slot) in acc.iter_mut().enumerate() {
                *slot ^= load_word(word_bytes, word);
            }
            if tail != 0 {
                acc_tail ^= load_tail(&record[W * 8..]);
            }
        }
    }

    for (word, slot) in acc.iter().enumerate() {
        accumulator[word * 8..word * 8 + 8].copy_from_slice(&slot.to_le_bytes());
    }
    if tail != 0 {
        store_tail(acc_tail, &mut accumulator[W * 8..]);
    }
}

/// Unrolled scan for records larger than [`MAX_REGISTER_WORDS`] words: the
/// aligned prefix is XORed in 8-word groups (each group's loads issued
/// back to back before any accumulator store), the sub-group remainder one
/// word at a time, and the tail as one packed word.
fn scan_unrolled_large(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
    acc_words: &mut Vec<u64>,
) {
    let whole_words = record_size / 8;
    let tail = record_size % 8;
    acc_words.clear();
    acc_words.resize(whole_words, 0);
    for (word, slot) in acc_words.iter_mut().enumerate() {
        *slot = load_word(accumulator, word);
    }
    let mut acc_tail = load_tail(&accumulator[whole_words * 8..]);

    for (word_index, &selector_word) in selector.words().iter().enumerate() {
        if selector_word == 0 {
            continue;
        }
        let mut remaining = selector_word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let start = (word_index * 64 + bit) * record_size;
            let record = &records[start..start + record_size];
            let mut acc_groups = acc_words.chunks_exact_mut(8);
            let mut record_groups = record[..whole_words * 8].chunks_exact(64);
            for (acc_group, record_group) in (&mut acc_groups).zip(&mut record_groups) {
                for (word, slot) in acc_group.iter_mut().enumerate() {
                    *slot ^= load_word(record_group, word);
                }
            }
            let record_rest = record_groups.remainder();
            for (word, slot) in acc_groups.into_remainder().iter_mut().enumerate() {
                *slot ^= load_word(record_rest, word);
            }
            if tail != 0 {
                acc_tail ^= load_tail(&record[whole_words * 8..]);
            }
        }
    }

    for (chunk, slot) in accumulator.chunks_exact_mut(8).zip(acc_words.iter()) {
        chunk.copy_from_slice(&slot.to_le_bytes());
    }
    if tail != 0 {
        store_tail(acc_tail, &mut accumulator[whole_words * 8..]);
    }
}

/// Which [`ScanKernel`] a backend scans with — a runtime policy, like the
/// engine's shard placement: schemes and call sites never change, only the
/// dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Self-benchmarked fastest kernel for this host ([`best_kernel`]).
    #[default]
    Auto,
    /// Force the byte-wise reference kernel.
    Scalar,
    /// Force the historical one-`u64` wide kernel.
    Wide,
    /// Force the unrolled multi-word kernel.
    Unrolled,
}

impl KernelChoice {
    /// The kernel this choice dispatches to.
    #[must_use]
    pub fn resolve(self) -> &'static dyn ScanKernel {
        match self {
            KernelChoice::Auto => best_kernel(),
            KernelChoice::Scalar => &ScalarKernel,
            KernelChoice::Wide => &WideKernel,
            KernelChoice::Unrolled => &UnrolledKernel,
        }
    }

    /// Parses a choice from its config spelling
    /// (`auto|scalar|wide|unrolled`, case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<KernelChoice> {
        match name.to_ascii_lowercase().as_str() {
            "auto" => Some(KernelChoice::Auto),
            "scalar" => Some(KernelChoice::Scalar),
            "wide" => Some(KernelChoice::Wide),
            "unrolled" => Some(KernelChoice::Unrolled),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            KernelChoice::Auto => "auto",
            KernelChoice::Scalar => "scalar",
            KernelChoice::Wide => "wide",
            KernelChoice::Unrolled => "unrolled",
        };
        f.write_str(name)
    }
}

/// Every registered scan kernel, scalar oracle first.
#[must_use]
pub fn kernels() -> &'static [&'static dyn ScanKernel] {
    &[&ScalarKernel, &WideKernel, &UnrolledKernel]
}

/// Looks a kernel up by its [`ScanKernel::name`].
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<&'static dyn ScanKernel> {
    kernels()
        .iter()
        .copied()
        .find(|kernel| kernel.name().eq_ignore_ascii_case(name))
}

/// The fastest kernel for this host, picked once per process.
///
/// On first call every registered kernel is verified byte-identical to the
/// scalar oracle on a synthetic workload and then timed on it (the paper's
/// 40-byte records at ~50 % selector density); the fastest verified kernel
/// wins and the answer is memoised. The `IMPIR_SCAN_KERNEL` environment
/// variable (`scalar|wide|unrolled`) short-circuits the benchmark — useful
/// for A/B runs of bench bins that take no config; unknown names are
/// ignored. The self-benchmark scans ~1 MiB per kernel, so first use costs
/// well under a millisecond per candidate.
#[must_use]
pub fn best_kernel() -> &'static dyn ScanKernel {
    static BEST: OnceLock<&'static dyn ScanKernel> = OnceLock::new();
    *BEST.get_or_init(|| {
        if let Some(kernel) = std::env::var("IMPIR_SCAN_KERNEL")
            .ok()
            .and_then(|name| kernel_by_name(&name))
        {
            return kernel;
        }
        self_benchmark()
    })
}

/// Times every registered kernel on a synthetic workload and returns the
/// fastest one that matches the scalar oracle (ties go to the earlier
/// registration; the oracle itself always matches, so the result is never
/// empty).
fn self_benchmark() -> &'static dyn ScanKernel {
    const RECORDS: usize = 4096;
    const RECORD_SIZE: usize = 40;
    const REPS: usize = 3;

    // Deterministic pseudo-random workload without pulling in an RNG:
    // xorshift64* is plenty for a timing probe.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let records: Vec<u8> = (0..(RECORDS * RECORD_SIZE).div_ceil(8))
        .flat_map(|_| next().to_le_bytes())
        .take(RECORDS * RECORD_SIZE)
        .collect();
    let selector: SelectorVector = (0..RECORDS).map(|_| next() & 1 == 1).collect();

    let mut oracle = vec![0u8; RECORD_SIZE];
    xor_select_scalar(&records, RECORD_SIZE, &selector, &mut oracle);

    let mut best: &'static dyn ScanKernel = &ScalarKernel;
    let mut best_seconds = f64::INFINITY;
    let mut acc_words = Vec::new();
    for &kernel in kernels() {
        let mut accumulator = vec![0u8; RECORD_SIZE];
        kernel.xor_select(
            &records,
            RECORD_SIZE,
            &selector,
            &mut accumulator,
            &mut acc_words,
        );
        if accumulator != oracle {
            // Defence in depth: a kernel that diverges from the oracle is
            // never auto-selected (the proptests make this unreachable).
            continue;
        }
        let mut kernel_best = f64::INFINITY;
        for _ in 0..REPS {
            accumulator.fill(0);
            let started = std::time::Instant::now();
            kernel.xor_select(
                &records,
                RECORD_SIZE,
                &selector,
                &mut accumulator,
                &mut acc_words,
            );
            kernel_best = kernel_best.min(started.elapsed().as_secs_f64());
            std::hint::black_box(&accumulator);
        }
        if kernel_best < best_seconds {
            best_seconds = kernel_best;
            best = kernel;
        }
    }
    best
}

/// XORs every selected record of `records` into `accumulator` through the
/// dispatched kernel ([`best_kernel`]).
///
/// `records` must contain exactly `selector.len()` records of
/// `record_size` bytes; `accumulator` must be `record_size` bytes long.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_into(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    let mut acc_words = Vec::new();
    xor_select_into_with(records, record_size, selector, accumulator, &mut acc_words);
}

/// [`xor_select_into`] with a caller-owned word scratch, so repeated scans
/// (one per query of a batch) reuse the same accumulator words instead of
/// allocating per call.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_into_with(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
    acc_words: &mut Vec<u64>,
) {
    check_shapes(records, record_size, selector, accumulator);
    best_kernel().xor_select(records, record_size, selector, accumulator, acc_words);
}

/// Byte-wise reference implementation of the selector-weighted XOR.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent.
pub fn xor_select_scalar(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    check_shapes(records, record_size, selector, accumulator);
    for index in 0..selector.len() {
        if selector.get(index) {
            let start = index * record_size;
            for (acc, byte) in accumulator
                .iter_mut()
                .zip(&records[start..start + record_size])
            {
                *acc ^= *byte;
            }
        }
    }
}

/// 64-bit-lane implementation: records whose size is a multiple of 8 bytes
/// are XORed eight bytes at a time — the historical fast path, kept as the
/// [`WideKernel`] baseline the unrolled kernel is benchmarked against.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent or `record_size` is not a
/// multiple of 8.
pub fn xor_select_wide(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    let mut acc_words = Vec::new();
    xor_select_wide_with(records, record_size, selector, accumulator, &mut acc_words);
}

/// [`xor_select_wide`] with the word accumulator hoisted out into a
/// caller-owned scratch: `acc_words` is cleared and refilled, keeping its
/// capacity, so a scan loop reusing one scratch allocates nothing per call
/// in the steady state.
///
/// # Panics
///
/// Panics if the slice sizes are inconsistent or `record_size` is not a
/// multiple of 8.
pub fn xor_select_wide_with(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
    acc_words: &mut Vec<u64>,
) {
    check_shapes(records, record_size, selector, accumulator);
    assert!(
        record_size.is_multiple_of(8),
        "wide path requires record sizes that are multiples of 8 bytes"
    );
    let words_per_record = record_size / 8;
    acc_words.clear();
    acc_words.resize(words_per_record, 0);
    for (word, chunk) in acc_words.iter_mut().zip(accumulator.chunks_exact(8)) {
        *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }

    // Walk the packed selector words and only touch records with set bits —
    // on average half the records, exactly like Algorithm 1's
    // `if v[j] = 1 then t_i ← t_i ⊕ D_d[j]`.
    for (word_index, &selector_word) in selector.words().iter().enumerate() {
        if selector_word == 0 {
            continue;
        }
        let mut remaining = selector_word;
        while remaining != 0 {
            let bit = remaining.trailing_zeros() as usize;
            remaining &= remaining - 1;
            let record_index = word_index * 64 + bit;
            let start = record_index * record_size;
            let record = &records[start..start + record_size];
            for (acc, chunk) in acc_words.iter_mut().zip(record.chunks_exact(8)) {
                *acc ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
        }
    }

    for (chunk, word) in accumulator.chunks_exact_mut(8).zip(acc_words.iter()) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
}

/// Merges a set of per-chunk partial results into a single record by XOR —
/// the second stage of the parallel reduction (Algorithm 1's `MasterXOR`
/// on a DPU and the host-side aggregation of per-DPU subresults).
///
/// # Panics
///
/// Panics if the partials do not all have length `record_size`.
#[must_use]
pub fn xor_reduce(partials: &[Vec<u8>], record_size: usize) -> Vec<u8> {
    let mut accumulator = vec![0u8; record_size];
    for partial in partials {
        assert_eq!(
            partial.len(),
            record_size,
            "partial result has the wrong record size"
        );
        for (acc, byte) in accumulator.iter_mut().zip(partial) {
            *acc ^= *byte;
        }
    }
    accumulator
}

/// XORs `other` into `accumulator` in place.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_in_place(accumulator: &mut [u8], other: &[u8]) {
    assert_eq!(accumulator.len(), other.len(), "length mismatch");
    for (acc, byte) in accumulator.iter_mut().zip(other) {
        *acc ^= *byte;
    }
}

fn check_many_shapes(record_size: usize, selectors: &[&SelectorVector], accumulators: &[u8]) {
    assert!(record_size > 0, "record size must be non-zero");
    assert_eq!(
        accumulators.len(),
        selectors.len() * record_size,
        "accumulators must be one record per selector"
    );
}

fn check_shapes(
    records: &[u8],
    record_size: usize,
    selector: &SelectorVector,
    accumulator: &mut [u8],
) {
    assert!(record_size > 0, "record size must be non-zero");
    assert_eq!(
        records.len(),
        selector.len() * record_size,
        "records buffer does not match selector length"
    );
    assert_eq!(
        accumulator.len(),
        record_size,
        "accumulator must be one record long"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_records(count: usize, record_size: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count * record_size).map(|_| rng.gen()).collect()
    }

    /// Selector patterns every kernel must agree on: empty, full, sparse
    /// (one bit per word, so word-skipping paths exercise both arms) and
    /// pseudo-random.
    fn selector_patterns(count: usize, seed: u64) -> Vec<(&'static str, SelectorVector)> {
        let mut rng = StdRng::seed_from_u64(seed);
        vec![
            ("all-zero", SelectorVector::zeros(count)),
            ("all-one", (0..count).map(|_| true).collect()),
            ("sparse", (0..count).map(|i| i % 64 == 63).collect()),
            ("random", (0..count).map(|_| rng.gen()).collect()),
        ]
    }

    fn oracle(records: &[u8], record_size: usize, selector: &SelectorVector) -> Vec<u8> {
        let mut accumulator = vec![0u8; record_size];
        xor_select_scalar(records, record_size, selector, &mut accumulator);
        accumulator
    }

    #[test]
    fn every_kernel_matches_the_oracle_across_geometries() {
        // Record sizes straddling every dispatch boundary: sub-word, exact
        // words, word+tail, the register/unrolled crossover at 64 bytes,
        // and a large record with both a group remainder and a tail.
        for record_size in [1usize, 2, 7, 8, 9, 16, 33, 40, 64, 65, 72, 100, 257] {
            let count = 200;
            let records = random_records(count, record_size, record_size as u64);
            for (pattern, selector) in selector_patterns(count, 7) {
                let expected = oracle(&records, record_size, &selector);
                for &kernel in kernels() {
                    let mut accumulator = vec![0u8; record_size];
                    let mut acc_words = Vec::new();
                    kernel.xor_select(
                        &records,
                        record_size,
                        &selector,
                        &mut accumulator,
                        &mut acc_words,
                    );
                    assert_eq!(
                        accumulator,
                        expected,
                        "kernel={} record_size={record_size} pattern={pattern}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_accumulate_into_nonzero_accumulators() {
        // The contract is `accumulator ^= scan`, not `accumulator = scan`.
        let record_size = 33;
        let records = random_records(100, record_size, 5);
        let selector: SelectorVector = (0..100).map(|i| i % 3 == 0).collect();
        let mut expected = vec![0x5a; record_size];
        xor_select_scalar(&records, record_size, &selector, &mut expected);
        for &kernel in kernels() {
            let mut accumulator = vec![0x5a; record_size];
            let mut acc_words = Vec::new();
            kernel.xor_select(
                &records,
                record_size,
                &selector,
                &mut accumulator,
                &mut acc_words,
            );
            assert_eq!(accumulator, expected, "kernel={}", kernel.name());
        }
    }

    #[test]
    fn best_kernel_is_registered_and_correct() {
        let best = best_kernel();
        assert!(kernels().iter().any(|kernel| kernel.name() == best.name()));
        let records = random_records(128, 40, 9);
        let selector: SelectorVector = (0..128).map(|i| i % 2 == 0).collect();
        let expected = oracle(&records, 40, &selector);
        let mut accumulator = vec![0u8; 40];
        let mut acc_words = Vec::new();
        best.xor_select(&records, 40, &selector, &mut accumulator, &mut acc_words);
        assert_eq!(accumulator, expected);
    }

    #[test]
    fn kernel_choice_round_trips_names() {
        for choice in [
            KernelChoice::Auto,
            KernelChoice::Scalar,
            KernelChoice::Wide,
            KernelChoice::Unrolled,
        ] {
            assert_eq!(KernelChoice::parse(&choice.to_string()), Some(choice));
        }
        assert_eq!(
            KernelChoice::parse("UNROLLED"),
            Some(KernelChoice::Unrolled)
        );
        assert_eq!(KernelChoice::parse("avx512"), None);
        assert_eq!(KernelChoice::default(), KernelChoice::Auto);
        assert_eq!(KernelChoice::Scalar.resolve().name(), "scalar");
        assert_eq!(KernelChoice::Wide.resolve().name(), "wide");
        assert_eq!(KernelChoice::Unrolled.resolve().name(), "unrolled");
    }

    #[test]
    fn kernel_by_name_finds_every_registered_kernel() {
        for &kernel in kernels() {
            let found = kernel_by_name(kernel.name()).expect("registered");
            assert_eq!(found.name(), kernel.name());
        }
        assert!(kernel_by_name("no-such-kernel").is_none());
    }

    #[test]
    fn wide_and_scalar_agree() {
        let records = random_records(200, 32, 1);
        let selector: SelectorVector = (0..200).map(|i| i % 5 < 2).collect();
        let mut scalar = vec![0u8; 32];
        let mut wide = vec![0u8; 32];
        xor_select_scalar(&records, 32, &selector, &mut scalar);
        xor_select_wide(&records, 32, &selector, &mut wide);
        assert_eq!(scalar, wide);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch_across_calls() {
        // One scratch carried across scans of different record sizes must
        // produce the same results as fresh allocation per call.
        let mut scratch = Vec::new();
        for (count, record_size, seed) in [(64usize, 32usize, 1u64), (100, 8, 2), (30, 48, 3)] {
            let records = random_records(count, record_size, seed);
            let selector: SelectorVector = (0..count).map(|i| i % 3 != 0).collect();
            let mut reused = vec![0u8; record_size];
            let mut fresh = vec![0u8; record_size];
            xor_select_into_with(&records, record_size, &selector, &mut reused, &mut scratch);
            xor_select_into(&records, record_size, &selector, &mut fresh);
            assert_eq!(reused, fresh, "record_size={record_size}");
        }
    }

    #[test]
    fn dispatch_handles_odd_record_sizes() {
        let records = random_records(50, 7, 2);
        let selector: SelectorVector = (0..50).map(|i| i % 2 == 0).collect();
        let mut via_dispatch = vec![0u8; 7];
        let mut via_scalar = vec![0u8; 7];
        xor_select_into(&records, 7, &selector, &mut via_dispatch);
        xor_select_scalar(&records, 7, &selector, &mut via_scalar);
        assert_eq!(via_dispatch, via_scalar);
    }

    #[test]
    fn empty_selector_leaves_accumulator_unchanged() {
        let selector = SelectorVector::zeros(16);
        let records = random_records(16, 8, 3);
        let mut accumulator = vec![0xaa; 8];
        xor_select_into(&records, 8, &selector, &mut accumulator);
        assert_eq!(accumulator, vec![0xaa; 8]);
    }

    #[test]
    fn one_hot_selector_returns_that_record() {
        let records = random_records(64, 16, 4);
        let mut selector = SelectorVector::zeros(64);
        selector.set(37, true);
        let mut accumulator = vec![0u8; 16];
        xor_select_into(&records, 16, &selector, &mut accumulator);
        assert_eq!(accumulator, &records[37 * 16..38 * 16]);
    }

    #[test]
    fn xor_reduce_combines_partials() {
        let partials = vec![vec![0b1010u8, 0], vec![0b0110u8, 1], vec![0b0001u8, 1]];
        assert_eq!(xor_reduce(&partials, 2), vec![0b1101, 0]);
        assert_eq!(xor_reduce(&[], 3), vec![0, 0, 0]);
    }

    #[test]
    fn xor_in_place_is_xor() {
        let mut acc = vec![1u8, 2, 3];
        xor_in_place(&mut acc, &[1, 1, 1]);
        assert_eq!(acc, vec![0, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_mismatch_panics() {
        let selector = SelectorVector::zeros(4);
        let mut acc = vec![0u8; 8];
        xor_select_into(&[0u8; 8], 8, &selector, &mut acc);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn kernel_shape_mismatch_panics() {
        let selector = SelectorVector::zeros(4);
        let mut acc = vec![0u8; 8];
        let mut acc_words = Vec::new();
        UnrolledKernel.xor_select(&[0u8; 8], 8, &selector, &mut acc, &mut acc_words);
    }

    /// `k` distinct selectors over `count` records. Selector 0 has the
    /// requested density exactly (`0`: none, `1`: sparse, `2`: ~0.5,
    /// `3`: all; `4` mixes them, cycling per selector); selector `j > 0`
    /// additionally flips the bit of record `j - 1`, so no two selectors
    /// coincide when `count >= k - 1`.
    fn distinct_selectors(count: usize, k: usize, density: u8, seed: u64) -> Vec<SelectorVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|j| {
                let class = if density == 4 { (j % 4) as u8 } else { density };
                let mut selector: SelectorVector = (0..count)
                    .map(|i| match class {
                        0 => false,
                        1 => i % 61 == j % 61,
                        2 => rng.gen(),
                        _ => true,
                    })
                    .collect();
                if j > 0 {
                    let flip = (j - 1) % count;
                    let bit = selector.get(flip);
                    selector.set(flip, !bit);
                }
                selector
            })
            .collect()
    }

    /// `k` independent scalar scans into copies of `initial`: the oracle
    /// every multi-selector scan is pinned against.
    fn many_oracle(
        records: &[u8],
        record_size: usize,
        selectors: &[SelectorVector],
        initial: &[u8],
    ) -> Vec<u8> {
        let mut accumulators = initial.to_vec();
        for (selector, accumulator) in selectors
            .iter()
            .zip(accumulators.chunks_exact_mut(record_size))
        {
            ScalarKernel.xor_select(records, record_size, selector, accumulator, &mut Vec::new());
        }
        accumulators
    }

    #[test]
    fn multi_selector_scans_match_independent_scans() {
        // k = 65 crosses the fused kernel's 64-selector grouping; record
        // sizes straddle the register/tiled boundary and the 128-byte tile.
        for record_size in [1usize, 8, 33, 64, 65, 72, 128, 200, 257] {
            let count = 300;
            let records = random_records(count, record_size, record_size as u64 ^ 3);
            for k in [0usize, 1, 2, 16, 17, 65] {
                let selectors = distinct_selectors(count, k, 4, k as u64);
                let refs: Vec<&SelectorVector> = selectors.iter().collect();
                let initial = random_records(k, record_size, 99);
                let expected = many_oracle(&records, record_size, &selectors, &initial);
                for &kernel in kernels() {
                    let mut accumulators = initial.clone();
                    kernel.xor_select_many(
                        &records,
                        record_size,
                        &refs,
                        &mut accumulators,
                        &mut Vec::new(),
                    );
                    assert_eq!(
                        accumulators,
                        expected,
                        "kernel={} record_size={record_size} k={k}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one record per selector")]
    fn multi_selector_accumulator_mismatch_panics() {
        let selector = SelectorVector::zeros(4);
        let mut accumulators = vec![0u8; 8];
        UnrolledKernel.xor_select_many(
            &[0u8; 32],
            8,
            &[&selector, &selector],
            &mut accumulators,
            &mut Vec::new(),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_every_kernel_matches_scalar(
            count in 1usize..300,
            record_size in 1usize..=257,
            density in 0u8..=4,
            seed in any::<u64>(),
        ) {
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            let selector: SelectorVector = match density {
                0 => SelectorVector::zeros(count),
                1 => (0..count).map(|_| true).collect(),
                2 => (0..count).map(|i| i % 61 == 0).collect(),
                _ => (0..count).map(|_| rng.gen()).collect(),
            };
            let expected = oracle(&records, record_size, &selector);
            let mut acc_words = Vec::new();
            for &kernel in kernels() {
                let mut accumulator = vec![0u8; record_size];
                kernel.xor_select(
                    &records,
                    record_size,
                    &selector,
                    &mut accumulator,
                    &mut acc_words,
                );
                prop_assert_eq!(
                    &accumulator,
                    &expected,
                    "kernel={} record_size={}",
                    kernel.name(),
                    record_size
                );
            }
        }

        #[test]
        fn prop_kernels_agree_on_offset_chunks(
            count in 65usize..300,
            record_size in 1usize..64,
            offset in 1usize..64,
            seed in any::<u64>(),
        ) {
            // The threaded scan hands each worker a record-range chunk whose
            // selector slice starts at an arbitrary offset; every kernel
            // must agree with the oracle on such unaligned sub-scans.
            let offset = offset.min(count - 1);
            let chunk_records = count - offset;
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0ff5e7);
            let selector: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let chunk = &records[offset * record_size..];
            let chunk_selector = selector.slice(offset, chunk_records);
            let expected = oracle(chunk, record_size, &chunk_selector);
            let mut acc_words = Vec::new();
            for &kernel in kernels() {
                let mut accumulator = vec![0u8; record_size];
                kernel.xor_select(
                    chunk,
                    record_size,
                    &chunk_selector,
                    &mut accumulator,
                    &mut acc_words,
                );
                prop_assert_eq!(&accumulator, &expected, "kernel={}", kernel.name());
            }
        }

        #[test]
        fn prop_multi_selector_scan_matches_independent_scalar_scans(
            count in 65usize..400,
            record_size in 1usize..=257,
            k in 1usize..=17,
            density in 0u8..=4,
            offset in 0usize..64,
            seed in any::<u64>(),
        ) {
            // Every kernel's `xor_select_many` over a record-range chunk
            // starting at an unaligned offset (as a pass's range would if
            // it were not 64-aligned) equals `k` scalar scans of the same
            // chunk, accumulating into non-zero accumulators.
            let offset = offset.min(count - 1);
            let chunk_records = count - offset;
            let records = random_records(count, record_size, seed);
            let selectors = distinct_selectors(count, k, density, seed ^ 0x5e1e);
            let chunk = &records[offset * record_size..];
            let chunk_selectors: Vec<SelectorVector> = selectors
                .iter()
                .map(|selector| selector.slice(offset, chunk_records))
                .collect();
            let refs: Vec<&SelectorVector> = chunk_selectors.iter().collect();
            let initial = random_records(k, record_size, seed ^ 0xacc);
            let expected = many_oracle(chunk, record_size, &chunk_selectors, &initial);
            let mut acc_words = Vec::new();
            for &kernel in kernels() {
                let mut accumulators = initial.clone();
                kernel.xor_select_many(chunk, record_size, &refs, &mut accumulators, &mut acc_words);
                prop_assert_eq!(
                    &accumulators,
                    &expected,
                    "kernel={} record_size={} k={} density={}",
                    kernel.name(),
                    record_size,
                    k,
                    density
                );
            }
        }

        #[test]
        fn prop_wide_matches_scalar(
            count in 1usize..300,
            words_per_record in 1usize..6,
            seed in any::<u64>(),
        ) {
            let record_size = 8 * words_per_record;
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            let selector: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let mut scalar = vec![0u8; record_size];
            let mut wide = vec![0u8; record_size];
            xor_select_scalar(&records, record_size, &selector, &mut scalar);
            xor_select_wide(&records, record_size, &selector, &mut wide);
            prop_assert_eq!(scalar, wide);
        }

        #[test]
        fn prop_xor_select_is_linear(
            count in 1usize..120,
            seed in any::<u64>(),
        ) {
            // xor_select(a ⊕ b) == xor_select(a) ⊕ xor_select(b): the scan is
            // linear in the selector, the property PIR correctness rests on.
            let record_size = 16;
            let records = random_records(count, record_size, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
            let a: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let b: SelectorVector = (0..count).map(|_| rng.gen()).collect();
            let mut a_xor_b = a.clone();
            a_xor_b.xor_assign(&b);

            let mut out_a = vec![0u8; record_size];
            let mut out_b = vec![0u8; record_size];
            let mut out_ab = vec![0u8; record_size];
            xor_select_into(&records, record_size, &a, &mut out_a);
            xor_select_into(&records, record_size, &b, &mut out_b);
            xor_select_into(&records, record_size, &a_xor_b, &mut out_ab);
            xor_in_place(&mut out_a, &out_b);
            prop_assert_eq!(out_a, out_ab);
        }
    }
}
